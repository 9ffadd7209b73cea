#!/usr/bin/env python
"""Policy lab report: the Logging-vs-Paging crossover and eviction policies.

Drives every crossover mix (``repro.harness.CROSSOVER_MIXES``) through
both cache modes of the same NVCache facade — ``logging`` (the paper's
log + DRAM read cache) and ``paging`` (the NVMM page-table cache,
docs/POLICIES.md) — and prints the winner per mix, then compares the
pluggable eviction/promotion policies (lru / alru / nhit) on a
slot-squeezed paging run where they actually have victims to choose.

Usage::

    PYTHONPATH=src python tools/policy_report.py
    PYTHONPATH=src python tools/policy_report.py --mix read-heavy
    PYTHONPATH=src python tools/policy_report.py --json
    PYTHONPATH=src python tools/policy_report.py --check     # CI gate

``--check`` exits 1 unless every mix's measured winner matches its
expected winner (logging for small-sync-write, paging for
overwrite-heavy and read-heavy) and the policy comparison is sane:
every policy sees the same workload (identical page_hits+page_misses),
lru/alru admit everything (promotions_skipped == 0) while nhit's
admission gate actually skips cold pages. Everything is seeded and
single-threaded, so two runs with the same arguments are
byte-identical.

Exit codes: 0 success, 1 a check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.cli import print_json  # noqa: E402
from repro.core import POLICY_NAMES  # noqa: E402
from repro.harness import (CROSSOVER_MIXES, policy_crossover,  # noqa: E402
                           policy_hit_ratios)

#: Stat columns shown per cache mode in the crossover table.
_MODE_STATS = {
    "logging": ("writes", "log_full_waits", "read_hits", "read_misses"),
    "paging": ("writes", "overwrite_hits", "fill_reads", "writeback_pages"),
}


def run_report(args) -> dict:
    """Run both experiments and return the JSON-ready report dict."""
    mixes = args.mix or sorted(CROSSOVER_MIXES)
    crossover = policy_crossover(mixes=mixes, seed=args.seed)
    policies = policy_hit_ratios(mix=args.policy_mix,
                                 policies=list(POLICY_NAMES),
                                 seed=args.seed,
                                 paging_slots=args.policy_slots)
    report = {
        "seed": args.seed,
        "mixes": {},
        "policies": policies,
        "policy_mix": args.policy_mix,
        "policy_slots": args.policy_slots,
    }
    for mix, result in crossover.items():
        report["mixes"][mix] = {
            "expected_winner": result.expected_winner,
            "winner": result.winner,
            "as_expected": result.as_expected,
            "speedup": result.speedup,
            "elapsed": result.elapsed,
            "bandwidth": result.bandwidth,
            "cache_stats": result.cache_stats,
        }
    return report


def check_report(report: dict) -> list:
    """Return the list of human-readable check failures (empty = pass)."""
    failures = []
    for mix, row in sorted(report["mixes"].items()):
        if not row["as_expected"]:
            failures.append(
                f"mix {mix!r}: winner {row['winner']} != expected "
                f"{row['expected_winner']} (elapsed {row['elapsed']})")
        if row["speedup"] <= 1.0:
            failures.append(
                f"mix {mix!r}: degenerate speedup {row['speedup']:.3f} "
                "— the modes are indistinguishable at this geometry")
    policies = report["policies"]
    accesses = {name: row["page_hits"] + row["page_misses"]
                for name, row in policies.items()}
    if len(set(accesses.values())) != 1:
        failures.append(f"policies saw different workloads: {accesses}")
    for name in ("lru", "alru"):
        if name in policies and policies[name]["promotions_skipped"]:
            failures.append(
                f"policy {name!r}: admission gate fired "
                f"({policies[name]['promotions_skipped']} skips) but "
                "lru/alru must admit every miss")
    if "nhit" in policies and not policies["nhit"]["promotions_skipped"]:
        failures.append("policy 'nhit': admission gate never fired — "
                        "threshold admission is not being exercised")
    return failures


def print_report(report: dict) -> None:
    print(f"Logging-vs-Paging crossover (seed {report['seed']})")
    header = (f"  {'mix':<18} {'expected':<9} {'winner':<9} "
              f"{'ok':<5} {'speedup':>7}  elapsed (log / page)")
    print(header)
    for mix, row in sorted(report["mixes"].items()):
        elapsed = row["elapsed"]
        print(f"  {mix:<18} {row['expected_winner']:<9} {row['winner']:<9} "
              f"{str(row['as_expected']):<5} {row['speedup']:>6.2f}x  "
              f"{elapsed.get('logging', 0.0):.4f}s / "
              f"{elapsed.get('paging', 0.0):.4f}s")
        for mode in sorted(row["cache_stats"]):
            stats = row["cache_stats"][mode]
            shown = ", ".join(f"{key}={int(stats[key])}"
                              for key in _MODE_STATS.get(mode, ())
                              if key in stats)
            print(f"      {mode:<8} {shown}")
    print(f"\nEviction policies on {report['policy_mix']} "
          f"(paging_slots={report['policy_slots']})")
    print(f"  {'policy':<7} {'hit_rate':>8} {'hits':>6} {'misses':>7} "
          f"{'promoted':>8} {'skipped':>8} {'evicted':>8}")
    for name, row in sorted(report["policies"].items()):
        print(f"  {name:<7} {row['hit_rate']:>8.3f} "
              f"{int(row['page_hits']):>6} {int(row['page_misses']):>7} "
              f"{int(row['promotions']):>8} "
              f"{int(row['promotions_skipped']):>8} "
              f"{int(row['evictions']):>8}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--mix", action="append",
                        choices=sorted(CROSSOVER_MIXES),
                        help="restrict the crossover to this mix "
                             "(repeatable; default: all mixes)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--policy-mix", default="read-heavy",
                        choices=sorted(CROSSOVER_MIXES),
                        help="mix used for the policy comparison "
                             "(default read-heavy)")
    parser.add_argument("--policy-slots", type=int, default=128,
                        help="paging slots for the policy comparison — "
                             "kept below the working set so policies "
                             "have victims (default 128)")
    parser.add_argument("--json", action="store_true",
                        help="emit the full report as JSON")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless winners and policy sanity "
                             "checks all hold (CI gate)")
    args = parser.parse_args(argv)

    report = run_report(args)
    failures = check_report(report)
    if args.json:
        report["check_failures"] = failures
        print_json(report)
    else:
        print_report(report)
    if args.check:
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        if not failures:
            print("policy crossover check: all "
                  f"{len(report['mixes'])} mixes as expected, "
                  "policy sanity holds")
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
