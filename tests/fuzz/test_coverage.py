"""The coverage collector is a pure observer — gated in CI.

The fitness signal must never steer the thing it measures: a run traced
by :class:`~repro.fuzz.coverage.CoverageCollector` has to be
bit-identical — simulated clock, NVCache stats, the full ordered
crash-point stream — to the same run without it. These tests drive one
deterministic fuzz schedule both ways and compare everything; CI runs
them in the ``fuzz`` suite (docs/CI.md).

Also pinned here: capture-window semantics (scope filtering, no
nesting, GC deferral). The GC rule is a regression test — automatic
cyclic collection used to finalize *earlier* cases' abandoned
simulation generators inside a later capture window, recording their
exception-handler lines against the wrong case and making edges depend
on process heap history.
"""

import dataclasses
import gc

import pytest

from repro.faults import CrashPointRecorder, run_workload
from repro.fuzz import (CoverageCollector, FuzzCase, build_fuzz_run,
                        seed_cases)

CASE = FuzzCase(schedule=(
    ("pwrite", 0, 0, 2, 65), ("fsync", 0), ("ftruncate", 0, 300),
    ("open",), ("append", 1, 1, 66), ("rename", 1), ("fsync", 1),
    ("unlink", 0),
))


def drive(collector=None):
    """Run CASE to completion; return (clock, stats dict, point stream)."""
    workload = build_fuzz_run(CASE)
    run = workload.build()
    recorder = CrashPointRecorder(run.env, record=True)
    if collector is None:
        run_workload(run, workload)
        edges = None
    else:
        with collector.capture() as window:
            run_workload(run, workload)
        edges = window.edges
    stream = [(p.index, p.site, p.label, p.time) for p in recorder.points]
    return run.env.now, dataclasses.asdict(run.nvcache.stats), stream, edges


def test_collector_does_not_perturb_clock_stats_or_crash_stream():
    collector = CoverageCollector(force_trace_hook=True)
    bare_now, bare_stats, bare_stream, _ = drive()
    traced_now, traced_stats, traced_stream, edges = drive(collector)
    assert traced_now == bare_now          # exact float equality, no tolerance
    assert traced_stats == bare_stats
    assert traced_stream == bare_stream
    assert edges, "the traced run recorded no edges at all"


def test_edges_are_scope_relative_and_in_scope():
    collector = CoverageCollector(force_trace_hook=True)
    _, _, _, edges = drive(collector)
    assert all(edge.startswith(("core/", "fs/")) for edge in edges), \
        sorted(edge for edge in edges
               if not edge.startswith(("core/", "fs/")))[:5]
    # The schedule exercises log, cleanup, recovery-adjacent paths.
    touched_files = {edge.split(":")[0] for edge in edges}
    assert "core/log.py" in touched_files
    assert "core/nvcache.py" in touched_files


def test_repeated_captures_of_the_same_run_are_identical():
    """Edge sets are a function of the case, not of heap history."""
    collector = CoverageCollector(force_trace_hook=True)
    first = drive(collector)[3]
    # Leave cyclic garbage from run 1 (abandoned generators) lying
    # around; the collector must keep its finalization out of run 2's
    # window.
    second = drive(collector)[3]
    third = drive(collector)[3]
    assert first == second == third


def test_gc_is_deferred_during_capture_and_restored_after():
    collector = CoverageCollector(force_trace_hook=True)
    assert gc.isenabled()
    with collector.capture():
        assert not gc.isenabled()
    assert gc.isenabled()
    # A disabled-at-entry state is preserved, not force-enabled.
    gc.disable()
    try:
        with collector.capture():
            assert not gc.isenabled()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_captures_must_not_nest():
    collector = CoverageCollector(force_trace_hook=True)
    with collector.capture():
        with pytest.raises(RuntimeError, match="nest"):
            with collector.capture():
                pass
    assert gc.isenabled()


def test_seed_cases_cover_every_family_and_are_stable():
    cases = seed_cases()
    assert len(cases) == 5
    digests = [case.digest() for case in cases]
    assert len(set(digests)) == 5
    assert seed_cases()[0].digest() == digests[0]
