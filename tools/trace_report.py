#!/usr/bin/env python
"""Inspect request traces recorded on a simulated stack.

Builds one of the evaluated stacks with tracing on
(``build_stack(..., tracing=True, metrics=True)``), runs a short
fio-like workload against it, and lets you dump, filter, and summarize
the recorded causal span trees (docs/OBSERVABILITY.md, Tracing):

- the default summary: span counts, the slowest root spans, the
  critical-path attribution table, and the p99 exemplar trace,
- ``--list`` every root span, ``--slowest N`` the N slowest roots,
- ``--trace ID`` one trace as an indented tree with per-segment costs,
- ``--attribution`` the per-(layer, segment) critical-path table alone;
  with ``--json`` it emits the ``repro.attribution/1`` payload
  (integer-picosecond segments and their exact total),
- ``--export trace.json`` the whole recording as Perfetto/Chrome JSON
  (load it at https://ui.perfetto.dev), ``--json`` a machine summary.

Exit codes: 0 success, 2 usage error (an out-of-range flag, an
unwritable ``--export`` path, an unrecorded ``--trace`` ID). A fault in
the simulation is a traceback, never reported as a usage error.

Usage::

    PYTHONPATH=src python tools/trace_report.py
    PYTHONPATH=src python tools/trace_report.py --system ssd --rw write
    PYTHONPATH=src python tools/trace_report.py --slowest 5
    PYTHONPATH=src python tools/trace_report.py --trace 17
    PYTHONPATH=src python tools/trace_report.py --export /tmp/trace.json
    PYTHONPATH=src python tools/trace_report.py --sample-rate 0.1 --seed 7
"""

from __future__ import annotations

import argparse
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.cli import (add_fio_arguments, bounded,  # noqa: E402
                       exit_boundary, fio_stack, print_json)
from repro.sim.trace import attribution_payload, to_ps  # noqa: E402
from repro.units import fmt_time  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="run a workload on a traced stack, inspect the spans")
    add_fio_arguments(parser, size_mib=1.0)
    parser.add_argument("--sample-rate", type=float, default=1.0,
                        help="head-sampling probability for root spans")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the sampling decision stream")
    parser.add_argument("--list", action="store_true", dest="list_roots",
                        help="print every recorded root span, then exit")
    parser.add_argument("--trace", type=int, default=None, metavar="ID",
                        help="print one trace as an indented span tree")
    parser.add_argument("--slowest", type=bounded(int, least=1),
                        default=None, metavar="N",
                        help="print the N slowest root spans")
    parser.add_argument("--attribution", action="store_true",
                        help="print only the critical-path attribution table")
    parser.add_argument("--export", metavar="PATH",
                        help="write the recording as Perfetto/Chrome JSON")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable summary on stdout")
    return parser.parse_args(argv)


def root_line(span) -> str:
    return (f"trace {span.trace_id:5d}  {span.qualified:16s} "
            f"t={span.start:12.9f}  dur={fmt_time(span.duration):>10s}  "
            f"[{span.track}]")


def print_tree(spans) -> None:
    """One trace as an indented tree; spans are already start-ordered."""
    children = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)

    def walk(span, depth):
        indent = "  " * depth
        print(f"{indent}{span.qualified}  dur={fmt_time(span.duration)}  "
              f"span={span.span_id}  [{span.track}]")
        for key, value in sorted(span.args.items()):
            print(f"{indent}    {key}={value}")
        for segment, cost in sorted(span.segments.items()):
            print(f"{indent}    ~ {segment}: {fmt_time(cost)}")
        if span.links:
            origins = ", ".join(f"trace {t}/span {s}"
                                for t, s, _time, _track in span.links)
            print(f"{indent}    <- linked from {origins}")
        for child in children.get(span.span_id, []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)


def attribution_table(tracer, root_name=None) -> str:
    totals = tracer.attribution(root_name)
    if not totals:
        return "(no segments attributed)"
    grand = sum(totals.values())
    width = max(len(name) for name in totals)
    lines = ["critical-path attribution"
             + (f" ({root_name} roots)" if root_name else "") + ":"]
    for name, cost in sorted(totals.items(), key=lambda kv: -kv[1]):
        share = 100.0 * cost / grand if grand else 0.0
        lines.append(f"  {name.ljust(width)}  {fmt_time(cost):>10s}  "
                     f"{share:5.1f}%")
    lines.append(f"  {'total'.ljust(width)}  {fmt_time(grand):>10s}")
    return "\n".join(lines)


def exemplar_lines(stack) -> list:
    """Resolve p99 exemplars recorded by the latency histograms into
    trace-ids that exist in this recording."""
    lines = []
    if stack.metrics is None:
        return lines
    known = {span.trace_id for span in stack.tracer.spans}
    for name in stack.metrics.names():
        if not name.endswith("_latency"):
            continue
        hist = stack.metrics.get(name)
        exemplar = getattr(hist, "exemplar_near", lambda q: None)(0.99)
        if exemplar is None:
            continue
        trace_id, value = exemplar
        marker = "" if trace_id in known else "  (trace not recorded)"
        lines.append(f"  {name}: p99 exemplar -> trace {trace_id} "
                     f"({fmt_time(value)}){marker}")
    return lines


def json_summary(args, tracer, result) -> dict:
    roots = tracer.roots()
    by_name = {}
    for span in tracer.spans:
        by_name[span.qualified] = by_name.get(span.qualified, 0) + 1
    slowest = sorted(roots, key=lambda s: (-s.duration, s.trace_id))[:10]
    return {
        "system": args.system,
        "rw": args.rw,
        "sample_rate": args.sample_rate,
        "spans": len(tracer.spans),
        "traces": len({span.trace_id for span in tracer.spans}),
        "roots": len(roots),
        "dropped": tracer.dropped,
        "elapsed_simulated": result.elapsed,
        "spans_by_name": dict(sorted(by_name.items())),
        "attribution": {name: cost for name, cost
                        in sorted(tracer.attribution().items())},
        "slowest_roots": [{"trace_id": span.trace_id,
                           "name": span.qualified,
                           "start": span.start,
                           "duration": span.duration}
                          for span in slowest],
    }


@exit_boundary()
def main(argv=None) -> int:
    args = parse_args(argv)
    stack, job, run = fio_stack(args, tracing=True,
                                trace_sample_rate=args.sample_rate,
                                trace_seed=args.seed)
    result = run()
    tracer = stack.tracer

    if args.export:
        tracer.to_chrome_json(args.export)
        print(f"wrote {args.export} ({len(tracer.spans)} spans in "
              f"{len({span.trace_id for span in tracer.spans})} traces)")
        return 0
    if args.attribution and args.json:
        # The machine form of the attribution table.
        payload = attribution_payload(
            {segment: to_ps(cost)
             for segment, cost in tracer.attribution().items()},
            source=f"trace_report:{args.system}:{args.rw}",
            spans=len(tracer.spans),
            dropped=tracer.dropped)
        print_json(payload)
        return 0
    if args.json:
        print_json(json_summary(args, tracer, result))
        return 0
    if args.trace is not None:
        spans = tracer.spans_for(args.trace)
        if not spans:
            print(f"no spans recorded for trace {args.trace}",
                  file=sys.stderr)
            return 2
        print_tree(spans)
        return 0
    if args.list_roots:
        for span in tracer.roots():
            print(root_line(span))
        return 0
    if args.slowest is not None:
        roots = sorted(tracer.roots(),
                       key=lambda s: (-s.duration, s.trace_id))
        for span in roots[:args.slowest]:
            print(root_line(span))
        return 0
    if args.attribution:
        print(attribution_table(tracer))
        return 0

    # Default: the full human summary.
    roots = tracer.roots()
    traces = {span.trace_id for span in tracer.spans}
    print(f"system: {args.system}  job: {job.rw} {job.block_size}B "
          f"fsync={job.fsync}  sample_rate={args.sample_rate}")
    print(f"elapsed (simulated): {fmt_time(result.elapsed)}  "
          f"spans: {len(tracer.spans)} in {len(traces)} traces "
          f"({len(roots)} roots, {tracer.dropped} dropped)")
    print()
    by_name = {}
    for span in tracer.spans:
        by_name[span.qualified] = by_name.get(span.qualified, 0) + 1
    width = max(len(name) for name in by_name) if by_name else 0
    print("spans by name:")
    for name, count in sorted(by_name.items()):
        print(f"  {name.ljust(width)}  n={count}")
    print()
    slowest = sorted(roots, key=lambda s: (-s.duration, s.trace_id))[:5]
    if slowest:
        print("slowest roots (drill in with --trace ID):")
        for span in slowest:
            print(f"  {root_line(span)}")
        print()
    print(attribution_table(tracer))
    exemplars = exemplar_lines(stack)
    if exemplars:
        print()
        print("tail exemplars:")
        for line in exemplars:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
