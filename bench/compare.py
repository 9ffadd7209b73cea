#!/usr/bin/env python3
"""Compare two ``run.py --json`` envelopes: ``compare.py A.json B.json``.

One row per workload x end-to-end metric, A being the parent and B the
change, with both medians and quartiles, the change as a share of A, and
the bound ``BENCHMARK.json`` fixes for the metric. Verdicts:

- ``ok``          B is no worse than A by more than the bound;
- ``regressed``   it is;
- ``unresolved``  the spread within a run is wider than the bound and the
                  two runs' quartile ranges overlap, so the bound cannot
                  be tested (not the same as unchanged).

Two runs of one commit and seed must also agree exactly on every
``sim_*`` metric and every ``frames_per_op`` / ``events_per_op`` count.
Exits 1 on any ``regressed`` row or exact count that differs.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT_SUFFIXES = (".frames_per_op", ".events_per_op")


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _range(entry: dict) -> tuple:
    value = entry["value"]
    return entry.get("q1", value), entry.get("q3", value)


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple:
    """(share by which B is worse than A, verdict)."""
    base = a["value"]
    change = (b["value"] - base) / base if base else 0.0
    worse = (change if better == "lower" else -change) + 0.0   # no -0.0
    (a_low, a_high), (b_low, b_high) = _range(a), _range(b)
    spread = max((a_high - a_low) / base if base else 0.0,
                 (b_high - b_low) / b["value"] if b["value"] else 0.0)
    overlap = a_low <= b_high and b_low <= a_high
    if spread > bound and overlap:
        return worse, "unresolved"
    return worse, "regressed" if worse > bound else "ok"


def _exact_differences(a: dict, b: dict) -> list:
    """Names of deterministic numbers that differ between the two runs."""
    differing = []
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        for kind, exact in (
                ("end_to_end", lambda name: name.startswith("sim_")),
                ("per_layer", lambda name: name.endswith(EXACT_SUFFIXES))):
            left = a["workloads"][workload].get(kind)
            right = b["workloads"][workload].get(kind)
            if not left or not right:
                continue
            for name, entry in left["metrics"].items():
                other = right["metrics"].get(name)
                if exact(name) and other and other["value"] != entry["value"]:
                    differing.append(f"{workload} {name}: "
                                     f"{entry['value']!r} != {other['value']!r}")
    return differing


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    a, b = _load(argv[0]), _load(argv[1])
    contract = _load(os.path.join(ROOT, "BENCHMARK.json"))["end_to_end"]
    failed = False
    print(f"A: commit {a['commit']} seed {a['seed']}   "
          f"B: commit {b['commit']} seed {b['seed']}")
    print(f"{'workload':24s} {'metric':15s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'worse by':>9s} {'bound':>6s}  verdict")
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        left = a["workloads"][workload].get("end_to_end")
        right = b["workloads"][workload].get("end_to_end")
        if not left or not right:
            continue
        for spec in contract:
            ea, eb = left["metrics"][spec["name"]], right["metrics"][spec["name"]]
            worse, word = verdict(ea, eb, spec["better"], spec["bound"])
            failed |= word == "regressed"
            cells = ["{:.5g} [{:.5g}, {:.5g}]".format(e["value"], *_range(e))
                     for e in (ea, eb)]
            print(f"{workload:24s} {spec['name']:15s} {cells[0]:>34s} "
                  f"{cells[1]:>34s} {worse:+9.2%} {spec['bound']:6.0%}  {word}")
    same_inputs = (a["commit"] == b["commit"] != "unknown"
                   and (a["seed"], a["smoke"]) == (b["seed"], b["smoke"]))
    if same_inputs:
        for line in _exact_differences(a, b):
            print(f"differs: {line}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
