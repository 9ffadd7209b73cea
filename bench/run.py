#!/usr/bin/env python3
"""Two-clock benchmark of the NVCache reproduction (see bench/README.md).

    python3 bench/run.py                          # all five workloads
    python3 bench/run.py --trace 1 --json out.json
    python3 bench/run.py --workload fio_randwrite_ideal --seed 7 \\
        --seconds 15 --trace 0                    # what BENCHMARK.json runs

Host metrics are on the host clock (``time.process_time``: how fast the
simulator runs); ``sim_*`` metrics are on the simulated clock (how fast
the modelled NVCache is) and repeat to the bit for a given seed.

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without it every workload runs, one at a time, each in a fresh
interpreter, so peak RSS and allocator state do not leak between them.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import multiprocessing
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

_import_began = time.process_time()
import drivers  # noqa: E402
import layers  # noqa: E402
from repro.harness import Scale  # noqa: E402
from repro.units import MIB  # noqa: E402

#: Host CPU seconds to import the program: the once-per-process part of
#: set-up, so work moved to import time shows in ``setup_s``.
IMPORT_S = time.process_time() - _import_began

SCHEMA = "repro.bench/1"
DEFAULT_SEED = 42
DEFAULT_SECONDS = 15
MIN_REPEATS = 3
KINDS = ("end_to_end", "per_layer")     # indexed by --trace


def _metric(value, unit, sample=None) -> dict:
    out = {"value": value, "unit": unit}
    if sample is not None:
        q1, _, q3 = (statistics.quantiles(sample, n=4) if len(sample) > 1
                     else (value, value, value))
        out.update(q1=q1, q3=q3, n=len(sample))
    return out


def _median_metric(sample, unit) -> dict:
    return _metric(statistics.median(sample) if sample else 0.0, unit, sample)


def _tally(repeats) -> tuple:
    attempted = sum(r.ops + r.checked for r in repeats)
    return max(attempted, 1), sum(r.failed for r in repeats)


def _same_simulation(repeats, notes) -> bool:
    """sim_* must repeat to the bit: a difference is a failure, not noise."""
    signatures = {r.sim_signature() for r in repeats if not r.crashed}
    if len(signatures) > 1:
        notes.append("simulated results differ between repeats of one seed")
    return len(signatures) <= 1


def _sim_rates(repeat) -> tuple:
    elapsed = repeat.sim_elapsed_s
    return (repeat.user_bytes / MIB / elapsed if elapsed else 0.0,
            repeat.ops / elapsed if elapsed else 0.0)


def measure_end_to_end(workload, seed: int, seconds: float, scale: Scale) -> dict:
    """Probes detached: one smoke-size warm-up, then repeats of build +
    drive + verify for ``seconds``, ``gc.collect()`` before each."""
    drivers.run_repeat(workload, seed, Scale(drivers.SMOKE_FACTOR))
    repeats = []
    began = time.monotonic()
    while len(repeats) < MIN_REPEATS or time.monotonic() - began < seconds:
        gc.collect()
        repeats.append(drivers.run_repeat(workload, seed, scale))
        if repeats[-1].crashed:
            break
    good = [r for r in repeats if not r.crashed]
    notes = []
    deterministic = _same_simulation(repeats, notes)
    mib_per_s, ops_per_s = _sim_rates(good[0]) if good else (0.0, 0.0)
    attempted, failed = _tally(repeats)
    metrics = {
        "setup_s": _median_metric([IMPORT_S + r.setup_s for r in good], "s"),
        "host_ops_per_s": _median_metric(
            [r.ops / r.host_s for r in good], "1/s"),
        "host_rss_mib": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "sim_mib_per_s": _metric(mib_per_s, "MiB/s"),
        "sim_ops_per_s": _metric(ops_per_s, "1/s"),
    }
    return {"correct": failed == 0 and deterministic, "attempted": attempted,
            "failed": failed, "metrics": metrics, "notes": notes}


def measure_per_layer(workload, seed: int, scale: Scale, trace_out=None) -> dict:
    """One repeat each, never mixed into the end-to-end numbers: an
    untraced reference, pass A under cProfile (host split), pass B with
    the registry and tracer attached (simulated split). Both passes must
    reproduce the reference's simulated results to the bit."""
    baseline = drivers.run_repeat(workload, seed, scale, ops=0)
    gc.collect()
    reference = drivers.run_repeat(workload, seed, scale)
    gc.collect()
    profile = cProfile.Profile()
    pass_a = drivers.run_repeat(workload, seed, scale,
                                drivers.Probes(profiler=profile))
    gc.collect()
    pass_b = drivers.run_repeat(workload, seed, scale,
                                drivers.Probes(attached=True))
    repeats = [baseline, reference, pass_a, pass_b]
    notes = []
    deterministic = _same_simulation(repeats[1:], notes)
    attempted, failed = _tally(repeats)
    ops = reference.ops
    metrics = {}
    if not any(r.crashed for r in repeats):
        events = reference.events - baseline.events
        for name, (value, unit) in layers.host_split(profile, ops).items():
            metrics[name] = _metric(value, unit)
        metrics["sim.core.events_per_op"] = _metric(events / ops, "1/op")
        metrics["sim.core.host_us_per_event"] = _metric(
            reference.host_s / events * 1e6, "us")
        metrics["trace.profile_overhead_ratio"] = _metric(
            pass_a.host_s / reference.host_s, "ratio")
        for name, (value, unit) in layers.sim_split(pass_b).items():
            metrics[name] = _metric(value, unit)
        metrics["obs.attached_overhead_ratio"] = _metric(
            pass_b.host_s / reference.host_s, "ratio")
        # -1 = unvalidated: the paper gives no figure for this workload.
        error = -1.0
        if workload.paper_mib_per_s is not None:
            error = (abs(_sim_rates(reference)[0] - workload.paper_mib_per_s)
                     / workload.paper_mib_per_s * 100)
        metrics["harness.paper_ref_err_pct"] = _metric(error, "%")
        tracer = pass_b.stack.tracer
        if tracer.dropped:
            notes.append(f"tracer dropped {tracer.dropped} records")
            deterministic = False
        if trace_out:
            tracer.to_chrome_json(trace_out)
    return {"correct": failed == 0 and deterministic, "attempted": attempted,
            "failed": failed, "metrics": metrics, "notes": notes}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool, trace_out=None) -> dict:
    workload = drivers.WORKLOADS[name]
    scale = Scale(drivers.SMOKE_FACTOR if smoke else drivers.FULL_FACTOR)
    if trace:
        return measure_per_layer(workload, seed, scale, trace_out)
    return measure_end_to_end(workload, seed, seconds, scale)


# -- reporting ------------------------------------------------------------

def print_record(name: str, trace: int, record: dict) -> None:
    print(f"== {name} ({KINDS[trace]}): attempted {record['attempted']} "
          f"failed {record['failed']} correct {record['correct']}")
    for note in record["notes"]:
        print(f"   ! {note}")
    for metric, entry in record["metrics"].items():
        value = entry["value"]
        shown = ("unvalidated" if metric == "harness.paper_ref_err_pct"
                 and value < 0 else f"{value:.6g}")
        spread = (f"  q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  n {entry['n']}"
                  if "n" in entry else "")
        print(f"{metric:42s} {shown:>14s} {entry['unit']}{spread}")


def last_line(record: dict) -> str:
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in record["metrics"].items()}})


def calibration_ops_per_s(n: int = 200_000) -> float:
    """A fixed pure-Python heap push/pop schedule (the shape of
    ``tools/bench_engine.py --microbench``): scores the host, not the
    program, so entries from different machines can be told apart."""
    rng = random.Random(42)
    delays = [rng.choice((1e-6, 2e-6, 5e-6, 1e-3)) for _ in range(n)]
    heap = []
    now = 0.0
    start = time.process_time()
    for seq, delay in enumerate(delays):
        heapq.heappush(heap, (now + delay, seq))
        if len(heap) > 64:
            now = heapq.heappop(heap)[0]
    while heap:
        heapq.heappop(heap)
    return 2 * n / (time.process_time() - start)


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def envelope(args, workloads: dict) -> dict:
    return {"schema": SCHEMA, "commit": _commit(), "seed": args.seed,
            "seconds": args.seconds, "smoke": args.smoke,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "host.calibration_ops_per_s": calibration_ops_per_s(),
            "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(drivers.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long the end-to-end repeats measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer passes (with --workload, instead "
                             "of the end-to-end run; without, after it)")
    parser.add_argument("--smoke", action="store_true",
                        help="16x smaller geometry, under 1 s per workload")
    parser.add_argument("--json", metavar="OUT",
                        help="write the result envelope (for compare.py)")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write pass B's spans as a Perfetto trace "
                             "(needs --workload and --trace 1)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 if any operation failed")
    args = parser.parse_args(argv)
    if args.trace_out and not (args.workload and args.trace):
        parser.error("--trace-out needs --workload and --trace 1")

    results = {}
    if args.workload:
        record = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, args.smoke, args.trace_out)
        print_record(args.workload, args.trace, record)
        results[args.workload] = {KINDS[args.trace]: record}
    else:
        # maxtasksperchild=1: a fresh interpreter for every run.
        spawn = multiprocessing.get_context("spawn")
        with spawn.Pool(1, maxtasksperchild=1) as pool:
            for name in drivers.WORKLOADS:
                results[name] = {}
                for trace in range(args.trace + 1):
                    record = pool.apply(run_workload, (
                        name, args.seed, args.seconds, trace, args.smoke))
                    print_record(name, trace, record)
                    sys.stdout.flush()
                    results[name][KINDS[trace]] = record
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(envelope(args, results), handle, indent=1)
    if args.workload:
        print(last_line(record))
    ok = all(record["correct"] for passes in results.values()
             for record in passes.values())
    return 1 if args.strict and not ok else 0


if __name__ == "__main__":
    sys.exit(main())
