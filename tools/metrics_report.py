#!/usr/bin/env python
"""Plain-text metrics dashboard for an instrumented stack.

Builds one of the evaluated stacks with observability on
(``build_stack(..., metrics=True)``), runs a short fio-like workload
against it, and prints:

- per-layer metric tables (nvmm / block / kernel / fs / core),
- the headline NVCache numbers the paper's figures revolve around —
  read-cache hit ratio, log occupancy, p99 write latency,
- sparkline time-series of log occupancy and cleanup drain rate,
  sampled on the simulated clock.

The full metric reference is docs/OBSERVABILITY.md.

Usage::

    PYTHONPATH=src python tools/metrics_report.py
    PYTHONPATH=src python tools/metrics_report.py --system dm-writecache+ssd
    PYTHONPATH=src python tools/metrics_report.py --rw randrw --size-mib 8
    PYTHONPATH=src python tools/metrics_report.py --export prom   # Prometheus text
    PYTHONPATH=src python tools/metrics_report.py --export json   # JSON snapshot
"""

from __future__ import annotations

import argparse
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.cli import add_fio_arguments, exit_boundary, fio_stack  # noqa: E402
from repro.harness.reporting import (  # noqa: E402
    format_metrics_by_layer, mib_per_s, sparkline)
from repro.obs import Sampler, to_json_text, to_prometheus_text  # noqa: E402
from repro.units import fmt_time  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="run a workload on an instrumented stack, print metrics")
    add_fio_arguments(parser, size_mib=4.0)
    parser.add_argument("--export", choices=["prom", "json"],
                        help="dump the final registry in this format "
                             "instead of the tables")
    parser.add_argument("--trace", action="store_true",
                        help="also attach the request tracer; headline "
                             "latencies gain p99 exemplar trace-ids "
                             "(inspect them with tools/trace_report.py)")
    return parser.parse_args(argv)


@exit_boundary()
def main(argv=None) -> int:
    args = parse_args(argv)
    stack, job, run = fio_stack(args, tracing=args.trace)
    registry = stack.metrics

    # Sample finely and let sparkline downsample.
    sampler = Sampler(stack.env, registry, period=5e-5).start()
    result = run()
    sampler.stop()

    if args.export == "prom":
        sys.stdout.write(to_prometheus_text(registry))
        return 0
    if args.export == "json":
        print(to_json_text(registry))
        return 0

    print(f"system: {args.system}  job: {job.rw} {job.block_size}B "
          f"x {result.write_count + result.read_count} ops "
          f"fsync={job.fsync}")
    print(f"elapsed (simulated): {fmt_time(result.elapsed)}  "
          f"write bw: {mib_per_s(result.write_bandwidth)}")
    print()

    def p99_with_exemplar(label, hist):
        """One headline row, plus an exemplar row when tracing recorded a
        trace-id near the p99 bucket (docs/OBSERVABILITY.md, Tracing)."""
        rows = [(label, fmt_time(hist.quantile(0.99)))]
        exemplar = hist.exemplar_near(0.99)
        if exemplar is not None:
            trace_id, value = exemplar
            rows.append((f"{label} exemplar",
                         f"trace {trace_id} ({fmt_time(value)})"))
        return rows

    # Headline numbers (paper Figs 4-6): hit ratio, occupancy, p99.
    headlines = []
    if registry.get("core.nvcache.hit_ratio") is not None:
        headlines.append(("read-cache hit ratio",
                          f"{registry.get('core.nvcache.hit_ratio').value():.3f}"))
        occupancy = registry.get("core.log.occupancy").value()
        headlines.append(("log occupancy (final)", f"{occupancy:.3f}"))
        headlines.extend(p99_with_exemplar(
            "p99 write latency", registry.get("core.nvcache.write_latency")))
    else:
        for name in registry.names():
            if name.endswith(".write_latency"):
                headlines.extend(p99_with_exemplar(
                    f"p99 {name}", registry.get(name)))
    if headlines:
        width = max(len(label) for label, _ in headlines)
        print("headline:")
        for label, value in headlines:
            print(f"  {label.ljust(width)}  {value}")
        print()

    # Time series over the run (simulated clock).
    series_of_interest = [
        ("log occupancy", "core.log.occupancy", False),
        ("drain rate (entries/s)", "core.cleanup.entries_retired", True),
        ("dirty pages", "kernel.page_cache.dirty_pages", False),
    ]
    shown = []
    for label, name, as_rate in series_of_interest:
        if registry.get(name) is None:
            continue
        if as_rate:
            _times, values = sampler.rate_series(name)
        else:
            _times, values = sampler.series(name)
        if values:
            shown.append((label, sparkline(values, width=48),
                          f"max={max(values):.3g}"))
    if shown:
        width = max(len(label) for label, _, _ in shown)
        print("over time:")
        for label, spark, peak in shown:
            print(f"  {label.ljust(width)}  {spark}  {peak}")
        print()

    print(format_metrics_by_layer(registry))
    return 0


if __name__ == "__main__":
    sys.exit(main())
