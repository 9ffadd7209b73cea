#!/usr/bin/env python
"""Multi-tenant fairness report for the traffic engine.

Runs a seeded mixed-tenant population (fio / db_bench / ycsb / kvstore
/ sqldb clients) over bounded simulated workers against one shared
NVCache (``repro.tenancy``, docs/MULTITENANCY.md) and prints the
fairness report: per-class p99, per-tenant slowdowns/hit ratios/quota
occupancy, Jain's fairness index, and the starvation gauge.

Usage::

    PYTHONPATH=src python tools/tenant_report.py
    PYTHONPATH=src python tools/tenant_report.py --tenants 256 --schedule diurnal
    PYTHONPATH=src python tools/tenant_report.py --quota 8 --json
    PYTHONPATH=src python tools/tenant_report.py --check            # CI gate
    PYTHONPATH=src python tools/tenant_report.py --verify-sharding --seeds 4 --jobs 4

``--check`` exits 1 unless every request completed, the Jain index is
at least ``--min-jain`` and the starvation gauge is at most
``--max-starvation``. ``--verify-sharding`` runs the same seed sweep
sequentially and sharded over ``--jobs`` worker processes
(``repro.parallel``) and exits 1 unless the merged results are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.cli import add_jobs_argument, print_json  # noqa: E402
from repro.harness.systems import SYSTEM_NAMES  # noqa: E402
from repro.tenancy import (TrafficEngine, make_mix, make_schedule,  # noqa: E402
                           sweep_seeds)


def verify_sharding(args) -> int:
    if args.jobs == 1:
        print("--verify-sharding compares sequential against sharded: "
              "it needs an effective --jobs of at least 2", file=sys.stderr)
        return 2
    seeds = list(range(args.seed, args.seed + args.seeds))
    params = {"tenants": args.tenants, "operations": args.ops,
              "workers": args.workers, "schedule": args.schedule,
              "duration": args.duration, "quota_entries": args.quota,
              "qos": not args.no_qos, "stack": args.system}
    sequential = sweep_seeds(seeds, jobs=1, params=params)
    sharded = sweep_seeds(seeds, jobs=args.jobs, params=params)
    identical = (json.dumps(sequential, sort_keys=True)
                 == json.dumps(sharded, sort_keys=True))
    print(f"{len(seeds)} seed(s), sequential vs --jobs {args.jobs}: "
          + ("byte-identical" if identical else "MISMATCH"))
    for record in sequential:
        if "error" in record:
            print(f"  seed {record['seed']}: ERROR {record['error']}")
            return 1
        print(f"  seed {record['seed']}: digest {record['digest'][:16]} "
              f"jain {record['jain']:.4f} "
              f"starvation {record['starvation']:.4f}")
    return 0 if identical else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tenants", type=int, default=64,
                        help="logical clients in the mix (default 64)")
    parser.add_argument("--ops", type=int, default=8,
                        help="operations per tenant (default 8)")
    parser.add_argument("--workers", type=int, default=16,
                        help="bounded simulated worker threads (default 16)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--schedule", default="bursty",
                        choices=["steady", "bursty", "diurnal"])
    parser.add_argument("--duration", type=float, default=0.5,
                        help="arrival window in simulated seconds")
    parser.add_argument("--quota", type=int, default=None,
                        help="per-tenant log-space quota in entries "
                             "(default: unlimited)")
    parser.add_argument("--system", default="nvcache+ssd",
                        choices=sorted(SYSTEM_NAMES))
    parser.add_argument("--no-qos", action="store_true",
                        help="run without a QoS manager attached "
                             "(plain shared stack)")
    parser.add_argument("--top", type=int, default=10,
                        help="slowest tenants to list (default 10)")
    parser.add_argument("--json", action="store_true",
                        help="print the full fairness report as JSON")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on fairness-gate failure (CI)")
    parser.add_argument("--min-jain", type=float, default=0.8)
    parser.add_argument("--max-starvation", type=float, default=0.75)
    parser.add_argument("--verify-sharding", action="store_true",
                        help="compare a sequential seed sweep against a "
                             "--jobs-wide sharded one, byte for byte")
    parser.add_argument("--seeds", type=int, default=4,
                        help="seed count for --verify-sharding")
    add_jobs_argument(parser, default=4,
                      help="worker processes for --verify-sharding")
    args = parser.parse_args(argv)

    if args.verify_sharding:
        return verify_sharding(args)

    specs = make_mix(args.tenants, seed=args.seed, operations=args.ops,
                     quota_entries=args.quota)
    engine = TrafficEngine(
        specs, workers=args.workers, seed=args.seed,
        schedule=make_schedule(args.schedule, duration=args.duration),
        stack_name=args.system, qos=not args.no_qos)
    report = engine.run()

    if args.json:
        print_json(report.to_dict())
    else:
        print(report.format(top=args.top))

    if args.check:
        failures = []
        if report.engine["completed"] != report.engine["requests"]:
            failures.append(
                f"only {report.engine['completed']} of "
                f"{report.engine['requests']} requests completed")
        if report.jain < args.min_jain:
            failures.append(f"Jain index {report.jain:.4f} "
                            f"< --min-jain {args.min_jain}")
        if report.starvation > args.max_starvation:
            failures.append(f"starvation {report.starvation:.4f} "
                            f"> --max-starvation {args.max_starvation}")
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        # Keep stdout machine-parseable under --json.
        print(f"check passed: jain {report.jain:.4f} "
              f"starvation {report.starvation:.4f}",
              file=sys.stderr if args.json else sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
