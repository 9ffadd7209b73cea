#!/usr/bin/env python
"""What-if capacity explorer: sweep a config grid, diff attributions.

Runs the same seeded multi-tenant traffic across every cell of a
declarative configuration grid (repro.capacity, docs/CAPACITY.md) and
reports where the critical-path latency lives in each cell — and, more
usefully, where it *moves* between cells:

- the default report: per-cell table (end-to-end critical path, request
  p99, Jain index, dominant segment) plus the detected knees,
- ``--diff A B`` the exact per-segment attribution diff between two
  cells (signed deltas sum to the end-to-end delta, to the picosecond),
- ``--knee`` only the dominant-segment flip points per scale axis,
- ``--check`` gate the grid's documented expectations (exit 1 on any
  miss), ``--json`` the machine payload, ``--html PATH`` the heatmap,
- ``--jobs N`` shard cells over worker processes (byte-identical to
  sequential).

Exit codes: 0 success, 1 a ``--check`` expectation failed, 2 usage or
runtime error.

Usage::

    PYTHONPATH=src python tools/capacity_report.py
    PYTHONPATH=src python tools/capacity_report.py --jobs 4 --check
    PYTHONPATH=src python tools/capacity_report.py \\
        --diff tenants=4,log_kib=64 tenants=4,log_kib=128
    PYTHONPATH=src python tools/capacity_report.py --grid explore \\
        --jobs 8 --html /tmp/capacity.html
"""

from __future__ import annotations

import argparse
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.capacity import (GRIDS, GridSpec, check_expectations,  # noqa: E402
                            detect_knees, diff_cells, format_diff,
                            format_knees, format_table, make_grid,
                            register_sweep_metrics, run_grid, to_html)
from repro.cli import (add_jobs_argument, exit_boundary,  # noqa: E402
                       print_json)
from repro.obs import MetricsRegistry  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="sweep a config grid, report attribution and knees")
    parser.add_argument("--grid", default="demo", choices=sorted(GRIDS),
                        help="named grid to sweep (default: demo)")
    parser.add_argument("--grid-file", metavar="PATH", default=None,
                        help="load a GridSpec from JSON instead of --grid")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the named grid's traffic")
    add_jobs_argument(parser, default=1,
                      help="shard cells over N worker processes")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                        help="print the exact attribution diff between "
                             "two cell ids")
    parser.add_argument("--knee", action="store_true",
                        help="print only the dominant-segment knees")
    parser.add_argument("--check", action="store_true",
                        help="assert the grid's documented expectations; "
                             "exit 1 on any failure")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable payload on stdout")
    parser.add_argument("--html", metavar="PATH", default=None,
                        help="write the heatmap as a self-contained "
                             "HTML file")
    parser.add_argument("--top", type=int, default=12,
                        help="segments shown per diff (default: 12)")
    return parser.parse_args(argv)


def load_spec(args) -> GridSpec:
    if args.grid_file:
        return GridSpec.from_json(args.grid_file)
    return make_grid(args.grid, seed=args.seed)


@exit_boundary(Exception)
def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec(args)
    registry = MetricsRegistry()
    metrics = register_sweep_metrics(registry)
    cells = run_grid(spec, jobs=args.jobs, metrics=metrics)
    knees = detect_knees(spec, cells)
    metrics.knees_found.inc(len(knees))

    if args.diff:
        by_id = {cell["cell_id"]: cell for cell in cells}
        missing = [cid for cid in args.diff
                   if cid not in by_id or "error" in by_id.get(cid, {})]
        if missing:
            print(f"unknown or failed cell id(s): {', '.join(missing)}; "
                  f"grid has: {', '.join(spec.cell_ids())}",
                  file=sys.stderr)
            return 2
        diff = diff_cells(by_id[args.diff[0]], by_id[args.diff[1]])
        metrics.diffs_rendered.inc()
        if args.json:
            print_json(diff)
        else:
            print(format_diff(diff, top=args.top))
        if args.check and not diff["exact"]:
            print("check FAILED: diff is not exact", file=sys.stderr)
            return 1
        return 0

    failures = check_expectations(spec, cells, knees) if args.check else []

    if args.html:
        with open(args.html, "w") as handle:
            handle.write(to_html(spec, cells, knees))
        if not args.json:
            print(f"wrote {args.html} ({len(cells)} cells)")

    if args.json:
        payload = {
            "grid": spec.to_dict(),
            "cells": cells,
            "knees": knees,
            "check": {"enabled": args.check, "failures": failures},
            "capacity_metrics": {
                name: metric.value()
                for name in registry.names() if name.startswith("capacity.")
                for metric in [registry.get(name)]},
        }
        print_json(payload)
    elif args.knee:
        print(format_knees(knees))
    elif not args.html:
        print(format_table(spec, cells))
        print()
        print(format_knees(knees))

    if args.check:
        if failures:
            print()
            print(f"check FAILED ({len(failures)} expectation(s)):",
                  file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        if not args.json:
            print()
            print(f"check OK: {len(spec.expectations)} expectation(s), "
                  f"{len(cells)} cells, all diffs exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
