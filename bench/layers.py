"""Per-layer metrics, taken from outside the program.

Pass A (``host_split``) aggregates a ``cProfile`` of the timed region by
source path into this repo's packages. Pass B (``sim_split``) reads the
metrics registry and the tracer that ``build_stack(metrics=True,
tracing=True)`` attaches. Layer names are the packages' names.
"""

from __future__ import annotations

import math
import os
import pstats
from typing import Dict, List, Tuple

import repro
from repro.harness import saturation_point

Metric = Tuple[float, str]          # (value, unit)

_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Source path (relative to the ``repro`` package) -> layer, first match
#: wins. ``python`` is builtins and the standard library; ``other`` is
#: the rest of ``repro`` (harness, obs) and the benchmark's own frames.
_LAYER_RULES = (
    ("sim/sync.py", "sim.sync"),
    ("sim/", "sim.core"),
    ("libc/", "libc"),
    ("core/nvcache.py", "core.nvcache"),
    ("core/log.py", "core.log"),
    ("core/cleanup.py", "core.cleanup"),
    ("core/read_cache.py", "core.read_cache"),
    ("core/radix.py", "core.index"),
    ("core/files.py", "core.index"),
    ("nvmm/", "nvmm"),
    ("kernel/", "kernel"),
    ("fs/", "fs"),
    ("block/", "block"),
    ("apps/", "apps"),
    ("workloads/", "workloads"),
)
HOST_LAYERS = tuple(dict.fromkeys(layer for _, layer in _LAYER_RULES)) + (
    "python", "other")

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of(filename: str) -> str:
    if filename.startswith(_PACKAGE_DIR):
        relative = filename[len(_PACKAGE_DIR):].replace(os.sep, "/")
        for prefix, layer in _LAYER_RULES:
            if relative.startswith(prefix):
                return layer
        return "other"
    if filename.startswith(_BENCH_DIR):
        return "other"
    return "python"


def host_split(profile, ops: int) -> Dict[str, Metric]:
    """Self time and frames by layer. Self time is a frame's time minus
    its children's, so the shares sum to 1; frames are calls plus
    generator resumes, an exact count."""
    self_time = dict.fromkeys(HOST_LAYERS, 0.0)
    frames = dict.fromkeys(HOST_LAYERS, 0)
    for (filename, _line, _name), (_cc, calls, tottime, _ct, _callers) in (
            pstats.Stats(profile).stats.items()):
        layer = layer_of(filename)
        self_time[layer] += tottime
        frames[layer] += calls
    total = sum(self_time.values())
    out: Dict[str, Metric] = {}
    for layer in HOST_LAYERS:
        out[f"{layer}.host_self_share"] = (
            self_time[layer] / total if total else 0.0, "share")
        out[f"{layer}.frames_per_op"] = (
            frames[layer] / ops if ops else 0.0, "1/op")
    return out


# -- pass B ---------------------------------------------------------------

#: Foreground roots: what the application waits for.
_FOREGROUND = frozenset(f"libc.{name}" for name in (
    "read", "pread", "write", "pwrite", "fsync", "fdatasync"))

ATTR_SEGMENTS = (
    "core.write_overhead", "core.read_overhead", "core.log_full_wait",
    "core.lock_wait", "nvmm.store", "nvmm.load", "nvmm.fence",
    "kernel.syscall", "kernel.copy", "kernel.page_cache_lookup",
    "fs.block_request", "fs.journal_cpu", "block.queue_wait",
    "block.write_service", "block.read_service", "block.flush_service",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest rank; 0 for an empty sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(len(sorted_values) * fraction))
    return sorted_values[rank - 1]


def latency_metrics(repeat) -> Dict[str, Metric]:
    """Per-op simulated latency (a write is pwrite + fsync)."""
    every = sorted(latency for latency, _ in repeat.latencies)
    writes = sorted(lat for lat, is_write in repeat.latencies if is_write)
    reads = sorted(lat for lat, is_write in repeat.latencies if not is_write)
    out = {}
    for label, sample in (("lat", every), ("write_lat", writes),
                          ("read_lat", reads)):
        out[f"workloads.{label}_p50_us"] = (percentile(sample, 0.50) * 1e6, "sim_us")
        out[f"workloads.{label}_p99_us"] = (percentile(sample, 0.99) * 1e6, "sim_us")
    return out


def sim_split(repeat) -> Dict[str, Metric]:
    """Counters of the timed region (close() drain included), normalised
    per op or per user byte, and the critical-path attribution of the
    foreground requests."""
    c = repeat.counters
    ops = repeat.ops
    user_bytes = repeat.user_bytes
    region_s = repeat.sim_end - repeat.sim_start

    def count(name: str) -> float:
        return c.get(name, 0)

    reads = count("core.nvcache.reads")
    read_lookups = count("core.nvcache.read_hits") + count("core.nvcache.read_misses")
    page_lookups = count("kernel.page_cache.hits") + count("kernel.page_cache.misses")
    ssd_writes = count("block.ssd0.writes")
    out: Dict[str, Metric] = {
        "nvmm.pwbs_per_op": (_ratio(count("nvmm.pmem0.pwbs"), ops), "1/op"),
        "nvmm.pfences_per_op": (_ratio(count("nvmm.pmem0.pfences"), ops), "1/op"),
        "nvmm.psyncs_per_op": (_ratio(count("nvmm.pmem0.psyncs"), ops), "1/op"),
        "nvmm.bytes_stored_per_user_byte": (
            _ratio(count("nvmm.pmem0.bytes_stored"), user_bytes), "B/B"),
        "nvmm.bytes_loaded_per_user_byte": (
            _ratio(count("nvmm.pmem0.bytes_loaded"), user_bytes), "B/B"),
        "core.log.entries_per_op": (
            _ratio(count("core.log.entries_created"), ops), "1/op"),
        "core.log.full_waits": (count("core.log.full_waits"), "count"),
        "core.cleanup.batches": (count("core.cleanup.batches"), "count"),
        "core.cleanup.batch_size_mean": (
            _ratio(count("core.cleanup.entries_retired"),
                   count("core.cleanup.batches")), "entries"),
        "core.cleanup.fsyncs": (count("core.cleanup.fsyncs"), "count"),
        "core.nvcache.read_hit_ratio": (
            _ratio(count("core.nvcache.read_hits"), read_lookups), "ratio"),
        "core.nvcache.dirty_misses_per_read": (
            _ratio(count("core.nvcache.dirty_misses"), reads), "ratio"),
        "kernel.page_cache.hit_ratio": (
            _ratio(count("kernel.page_cache.hits"), page_lookups), "ratio"),
        "kernel.page_cache.dirty_combines": (
            count("kernel.page_cache.dirty_combines"), "count"),
        "kernel.page_cache.writeback_pages": (
            count("kernel.page_cache.writeback_pages"), "count"),
        "fs.ext4.journal_commits": (count("fs.ext4.journal_commits"), "count"),
        "block.ssd0.writes": (ssd_writes, "count"),
        "block.ssd0.flushes": (count("block.ssd0.flushes"), "count"),
        "block.ssd0.bytes_written_per_user_byte": (
            _ratio(count("block.ssd0.bytes_written"), user_bytes), "B/B"),
        "block.ssd0.busy_share": (
            _ratio(count("block.ssd0.busy_time"), region_s), "share"),
        "block.ssd0.sequential_write_share": (
            _ratio(count("block.ssd0.sequential_writes"), ssd_writes), "share"),
    }
    out.update(_attribution(repeat))
    out.update(latency_metrics(repeat))
    out["workloads.sim_elapsed_s"] = (repeat.sim_elapsed_s, "sim_s")
    knee = saturation_point(repeat.fio) if repeat.fio is not None else None
    # 0 = no knee: the log never filled (or the workload has no log).
    out["workloads.saturation_knee_s"] = (knee or 0.0, "sim_s")
    return out


def _attribution(repeat) -> Dict[str, Metric]:
    """Critical-path segments of the foreground roots inside the timed
    region, each as a share of their summed latency. The flat
    ``Tracer.attribution()`` would also sum the background
    ``core.drain_batch`` roots, which puts ``block.write_service`` first
    even when no writer ever waits; those are reported apart, as the
    share of the foreground window a drain batch was running."""
    tracer = repeat.stack.tracer
    window_end = repeat.sim_start + repeat.sim_elapsed_s
    segments: Dict[str, float] = {}
    foreground = 0.0
    draining = 0.0
    for span in tracer.roots():
        if span.start < repeat.sim_start:
            continue
        if span.qualified in _FOREGROUND and span.end <= repeat.sim_end:
            foreground += span.duration
            for segment, amount in span.segments.items():
                segments[segment] = segments.get(segment, 0.0) + amount
        elif span.qualified == "core.drain_batch":
            draining += max(0.0, min(span.end, window_end) - span.start)
    out = {f"attr.{name}": (_ratio(segments.pop(name, 0.0), foreground), "share")
           for name in ATTR_SEGMENTS}
    # Whatever is left: the *.unattributed residuals and any segment
    # this table does not name, so the attr.* shares still sum to 1.
    out["attr.unattributed"] = (_ratio(sum(segments.values()), foreground), "share")
    out["core.cleanup.drain_busy_share"] = (
        _ratio(draining, repeat.sim_elapsed_s), "share")
    return out
