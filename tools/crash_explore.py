#!/usr/bin/env python
"""Crash-point exploration from the command line.

Enumerates every persistence boundary a workload crosses, power-cuts the
simulated machine at each one (plus seeded cache-line survivor subsets),
runs recovery, and checks the durability contract
(see docs/CRASH_TESTING.md)::

    PYTHONPATH=src python tools/crash_explore.py --workload fio
    PYTHONPATH=src python tools/crash_explore.py --workload fio-mixed \
        --budget 40 --subsets 2 --seed 1 --check
    PYTHONPATH=src python tools/crash_explore.py --workload fio --list-points
    PYTHONPATH=src python tools/crash_explore.py --workload fio --jobs 4 \
        --check --json

``--jobs N`` shards the sweep across N worker processes
(``repro.parallel``); the report is byte-identical to a sequential run
regardless of N — results merge in plan order, never arrival order.
``--seeds`` runs a survivor-sampling seed matrix (one full sweep per
seed, also sharded across the jobs).

Exit codes: 0 = explored clean, 1 = invariant violations found
(with ``--check``), 2 = usage or harness error.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.cli import (add_jobs_argument, by_invariant,  # noqa: E402
                       dump_metrics, exit_boundary, print_json)
from repro.faults import (WORKLOADS, CrashExplorer,  # noqa: E402
                          ExplorationError)
from repro.obs import MetricsRegistry  # noqa: E402
from repro.parallel import (CELL_TIMEOUT, ShardEngine,  # noqa: E402
                            SweepSpec, make_explorer, parallel_explore,
                            seed_matrix)


def parse_seeds(text: str) -> list:
    """``"0,2,5-7"`` -> ``[0, 2, 5, 6, 7]`` (sorted, deduplicated)."""
    seeds = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo, _, hi = part[1:].partition("-")
            seeds.update(range(int(part[0] + lo), int(hi) + 1))
        else:
            seeds.add(int(part))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return sorted(seeds)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Enumerate crash points, crash at each, recover, and "
                    "check the durability contract.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="fio", help="crash workload to drive")
    parser.add_argument("--ops", type=int, default=None,
                        help="number of application ops (workload default "
                             "if omitted)")
    parser.add_argument("--budget", type=int, default=None,
                        help="max crash points to explore (default: all)")
    parser.add_argument("--subsets", type=int, default=1,
                        help="seeded cache-line survivor subsets per dirty "
                             "point, on top of the drop-all image")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for survivor-subset sampling")
    parser.add_argument("--seeds", type=str, default=None,
                        help="seed matrix: comma list / ranges ('0,2,4-7'); "
                             "one full sweep per seed, overrides --seed")
    add_jobs_argument(parser, default=1,
                      help="worker processes to shard the sweep across")
    parser.add_argument("--shard-timeout", type=float, default=CELL_TIMEOUT,
                        help="per-shard deadline in seconds (parallel only)")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable summary on stdout "
                             "instead of the text report")
    parser.add_argument("--metrics", action="store_true",
                        help="dump parallel.* engine metrics to stderr "
                             "after the sweep")
    parser.add_argument("--trace", action="store_true",
                        help="attach a request tracer to every rebuilt run; "
                             "the report is guaranteed byte-identical to an "
                             "untraced sweep")
    parser.add_argument("--list-points", action="store_true",
                        help="enumerate and print the crash points, "
                             "then exit without exploring")
    parser.add_argument("--minimize", action="store_true",
                        help="greedily shrink each failing case to a "
                             "minimal survivor set")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any invariant violation is found")
    return parser


def list_points(explorer: CrashExplorer) -> None:
    points = explorer.enumerate_points()
    for point in points:
        print(f"#{point.index:4d}  t={point.time:12.9f}  "
              f"dirty={point.dirty_lines:3d}  {point.site:28s} {point.label}")
    print(f"{len(points)} crash points")


def report_violations(result, explorer: CrashExplorer,
                      minimize: bool) -> None:
    failing = [case for case in result.cases if case.violations]
    print(f"\n{len(failing)} failing case(s):")
    for case in failing:
        print(f"- point #{case.point.index} [{case.point.site}] "
              f"{case.point.label!r}, variant {case.variant}")
        for violation in case.violations:
            print(f"    {violation.invariant}: {violation.message}")
        if minimize and case.keep_lines:
            smallest = explorer.minimize(case)
            print(f"    minimized survivor set: "
                  f"{list(smallest.keep_lines)} "
                  f"({len(case.keep_lines)} -> {len(smallest.keep_lines)} "
                  f"lines)")


def json_summary(workload: str, result) -> dict:
    """Deterministic machine-readable sweep summary: no wall-clock, no
    worker info — byte-identical for any ``--jobs``."""
    failing = [{
        "point": case.point.index,
        "site": case.point.site,
        "label": case.point.label,
        "variant": case.variant,
        "keep_lines": list(case.keep_lines),
        "violations": [{"invariant": v.invariant, "message": v.message}
                       for v in case.violations],
    } for case in result.cases if case.violations]
    return {
        "workload": workload,
        "ok": result.ok,
        "points": len(result.points),
        "explored": len(result.selected),
        "cases": len(result.cases),
        "violations": len(result.violations),
        "by_site": result.site_histogram(),
        "by_invariant": by_invariant(result.violations),
        "failing_cases": failing,
    }


def run_matrix(args, spec: SweepSpec, engine: ShardEngine) -> int:
    seeds = parse_seeds(args.seeds)
    cells = seed_matrix(spec, seeds, engine=engine)
    total = sum(cell["violations"] for cell in cells)
    if args.json:
        print_json({"workload": args.workload, "seeds": seeds,
                    "cells": cells, "violations": total,
                    "ok": total == 0})
    else:
        print(f"workload: {args.workload}")
        print(f"seed matrix: {len(cells)} cell(s)")
        for cell in cells:
            print(f"  seed {cell['seed']:4d}: cases {cell['cases']:5d}  "
                  f"violations {cell['violations']}")
        print(f"total violations: {total}")
    return 1 if total and args.check else 0


@exit_boundary(ExplorationError)
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    registry = MetricsRegistry()
    spec = SweepSpec(workload=args.workload, ops=args.ops,
                     budget=args.budget, subsets=args.subsets,
                     seed=args.seed, trace=args.trace)
    engine = ShardEngine(jobs=args.jobs, registry=registry)
    explorer = make_explorer(spec)
    if args.list_points:
        list_points(explorer)
        return 0
    if args.seeds is not None:
        code = run_matrix(args, spec, engine)
        if args.metrics:
            dump_metrics(registry, "parallel")
        return code
    result = parallel_explore(spec, engine=engine, explorer=explorer,
                              shard_timeout=args.shard_timeout)
    if args.metrics:
        dump_metrics(registry, "parallel")
    if args.json:
        print_json(json_summary(args.workload, result))
    else:
        print(f"workload: {args.workload}")
        if args.trace:
            print("tracing: enabled")
        print(result.summary())
        if result.violations:
            report_violations(result, explorer, args.minimize)
    if result.violations and args.check:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
