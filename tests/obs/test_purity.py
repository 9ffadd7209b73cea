"""Observers are pure: one proof for every probe on every cache mode.

Each ``CACHE_MODES`` row runs the same seeded fio mixed job bare and
with one observer attached — the request tracer, the tracer head-sampled
at 0.1, the metrics registry, the crash-point recorder — and must end at
the same simulated instant, after the same number of dispatched events,
with the same cache, device and NVMM stats and the same bytes on the
backend. The crash-point stream (index, site, label, time, dirty lines)
of a recorded run must not move either when a second observer rides
along. Every ``SYSTEM_NAMES`` stack gets the tracer and registry rows
too: no layer under the cache picks a code path by what is attached.
"""

import functools
import hashlib
from dataclasses import asdict, replace

import pytest

from repro.core import CACHE_MODES
from repro.faults.recorder import CrashPointRecorder
from repro.harness import SYSTEM_NAMES, Scale, build_stack, nvcache_config
from repro.workloads import FioJob, run_fio

SCALE = Scale(4096)
JOB = FioJob(rw="randrw", block_size=4096, size=96 * 4096, fsync=1, seed=11)

#: Observer -> the ``build_stack`` keywords that attach it (the recorder
#: attaches to the built environment instead).
OBSERVERS = {
    "tracer": {"tracing": True},
    "tracer_sampled": {"tracing": True, "trace_sample_rate": 0.1,
                       "trace_seed": 3},
    "metrics": {"metrics": True},
    "recorder": {},
}


@functools.lru_cache(maxsize=None)
def run(mode, observer=None, recorded=False):
    """(simulated results, crash-point stream or None) of one run."""
    stack = build_stack("nvcache+ssd", SCALE,
                        config=replace(nvcache_config(SCALE), cache_mode=mode),
                        **OBSERVERS.get(observer, {}))
    nvmm, ssd = stack.devices["log_nvmm"], stack.devices["ssd"]
    recorder = None
    if recorded or observer == "recorder":
        recorder = CrashPointRecorder(
            stack.env, probe=lambda: {"dirty_lines": nvmm.dirty_line_count()})
    run_fio(stack.env, stack.libc, JOB, "/bench.dat", settle=stack.settle)
    stack.env.run_process(stack.settle())
    backend = hashlib.sha256()
    for block, data in sorted(ssd.durable_snapshot().items()):
        backend.update(block.to_bytes(8, "little") + data)
    results = (stack.env.now, stack.env.events_dispatched,
               stack.nvcache.stats.as_dict(),
               asdict(ssd.stats), asdict(nvmm.stats), backend.hexdigest())
    if observer in ("tracer", "tracer_sampled"):
        assert stack.tracer.spans and not stack.tracer.dropped
    return results, (recorder.points if recorder is not None else None)


@pytest.mark.parametrize("observer", sorted(OBSERVERS))
@pytest.mark.parametrize("mode", sorted(CACHE_MODES))
def test_observer_changes_no_simulated_result(mode, observer):
    bare, _ = run(mode)
    assert bare[2]["writes"] and bare[2]["reads"] and bare[3]["flushes"]
    observed, _ = run(mode, observer)
    assert observed == bare
    # Riding along a recorder, the observer moves neither the results
    # nor a single crash point.
    alone, stream = run(mode, recorded=True)
    both, stream_observed = run(mode, observer, recorded=True)
    assert alone == both == bare
    assert stream and stream_observed == stream


@pytest.mark.parametrize("observer", ["tracer", "metrics"])
@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_observer_changes_no_result_on_any_stack(name, observer):
    def run_on(**attach):
        stack = build_stack(name, SCALE, **attach)
        result = run_fio(stack.env, stack.libc, JOB, "/bench.dat",
                         settle=stack.settle)
        stack.env.run_process(stack.settle())
        return stack.env.events_dispatched, stack.env.now, result.elapsed

    assert run_on(**OBSERVERS[observer]) == run_on()
