"""Equivalence of batched device retirement with the per-op write path.

``BlockDevice.write_batch`` retires a run of queued writes with one
chained completion callback per op instead of the lock-handoff + timeout
round-trip each ``write()`` pays. This pits the batched path against
back-to-back ``write()`` calls over randomized op sequences — in the
style of ``tests/nvmm/test_overlay_equivalence.py`` — and demands
byte-identical behaviour on every observable channel: per-op completion
times (via the crash-point stream), stats including the order-dependent
sequential/random detection, device content, metrics snapshots, fault
injection, and the final simulated clock. The only permitted difference
is the one the optimization exists for: fewer dispatched events.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block import BlockDevice, BlockTiming
from repro.faults import BlockFaultInjector, CrashPointRecorder
from repro.kernel.errno import KernelError
from repro.obs import MetricsRegistry
from repro.sim import Environment

SIZE = 1 << 20

TIMING = BlockTiming(
    read_base=90e-6, write_base=39e-6,
    seq_read_base=4e-6, seq_write_base=2e-6,
    read_bandwidth=500e6, write_bandwidth=460e6,
    flush_latency=210e-6,
)


def _build(with_metrics: bool = True):
    env = Environment()
    if with_metrics:
        env.metrics = MetricsRegistry()
    device = BlockDevice(env, SIZE, TIMING, name="batchdev")
    recorder = CrashPointRecorder(env)
    return env, device, recorder


def _run_reference(ops):
    env, device, recorder = _build()

    def body():
        for offset, data in ops:
            yield from device.write(offset, data)

    env.run_process(body())
    return env, device, recorder


def _run_batched(ops):
    env, device, recorder = _build()

    def body():
        yield from device.write_batch(ops)

    env.run_process(body())
    return env, device, recorder


def _observables(env, device, recorder):
    return {
        "now": env.now,
        "stats": asdict(device.stats),
        "durable": device.durable_snapshot(),
        "content": device._read_raw(0, SIZE),
        "points": [(p.site, p.label, p.time) for p in recorder.points],
        "metrics": env.metrics.snapshot_detailed(),
    }


# Offsets are drawn block-aligned-ish with small strides so runs contain
# genuine sequential pairs (offset == previous end) as well as random
# jumps — the service-time model branches on exactly that history.
op_lists = st.lists(
    st.tuples(st.integers(0, 200), st.integers(1, 3000)),
    min_size=1, max_size=25,
)


def _materialize(raw_ops, seed):
    ops = []
    cursor = 0
    for slot, length in raw_ops:
        if slot % 3 == 0:
            offset = cursor  # sequential continuation
        else:
            offset = (slot * 4096 + seed) % (SIZE - length)
        ops.append((offset, bytes((seed + i) % 256 for i in range(length))))
        cursor = offset + length
    return ops


@settings(max_examples=40, deadline=None)
@given(raw_ops=op_lists, seed=st.integers(0, 255))
def test_write_batch_matches_per_op_writes(raw_ops, seed):
    ops = _materialize(raw_ops, seed)
    ref = _observables(*_run_reference(ops))
    batch = _observables(*_run_batched(ops))
    assert batch == ref


@settings(max_examples=20, deadline=None)
@given(raw_ops=op_lists, seed=st.integers(0, 255))
def test_write_batch_dispatches_fewer_events(raw_ops, seed):
    ops = _materialize(raw_ops, seed)
    ref_env, _, _ = _run_reference(ops)
    batch_env, _, _ = _run_batched(ops)
    # The point of the batch path: per-op lock handoffs and timeout
    # waitables collapse into chained callbacks. One op pays the same
    # constant setup; runs of two or more must dispatch strictly less.
    if len(ops) > 1:
        assert batch_env.events_dispatched < ref_env.events_dispatched
    else:
        assert batch_env.events_dispatched <= ref_env.events_dispatched


@settings(max_examples=25, deadline=None)
@given(raw_ops=op_lists, seed=st.integers(0, 255),
       fault_index=st.integers(0, 24), tear=st.booleans())
def test_write_batch_fault_injection_matches(raw_ops, seed, fault_index, tear):
    ops = _materialize(raw_ops, seed)
    outcomes = []
    for runner in ("reference", "batched"):
        env, device, recorder = _build()
        plan = dict(tear_writes=[fault_index], torn_keep=1) if tear \
            else dict(fail_writes=[fault_index])
        BlockFaultInjector(**plan).arm(device)

        def body():
            if runner == "reference":
                for offset, data in ops:
                    yield from device.write(offset, data)
            else:
                yield from device.write_batch(ops)

        error = None
        try:
            env.run_process(body())
        except KernelError as exc:
            error = str(exc)
        outcomes.append({
            "error": error,
            **_observables(env, device, recorder),
        })
    reference, batched = outcomes
    # The injected error (if the batch is long enough to reach it) must
    # surface with the same message, at the same simulated time, leaving
    # the same partial device state.
    assert batched == reference


def test_write_batch_resolve_reads_data_at_service_start():
    env, device, _ = _build(with_metrics=False)
    backing = {0: b"old-" + bytes(4092)}
    completions = []

    def mutate():
        # Runs concurrently with the batch: overwrites the backing entry
        # before the (only) op's service starts at t=0.
        backing[0] = b"new-" + bytes(4092)
        yield env.timeout(0.0)

    def body():
        env.spawn(mutate(), name="mutator")
        yield env.timeout(0.0)  # let the mutator run first, as a queued
        #                         writeback naturally would
        yield from device.write_batch(
            [0], resolve=lambda block: (block * 4096, backing[block]),
            on_complete=completions.append)

    env.run_process(body())
    assert device._read_raw(0, 4)== b"new-"
    assert completions == [0]


def test_write_batch_empty_is_a_noop():
    env, device, recorder = _build()

    def body():
        yield from device.write_batch([])

    env.run_process(body())
    assert device.stats.writes == 0
    assert recorder.points == []


def test_write_batch_on_complete_runs_per_op_in_order():
    env, device, _ = _build(with_metrics=False)
    seen = []

    def body():
        yield from device.write_batch(
            [(0, b"a" * 100), (100, b"b" * 100), (4096, b"c" * 100)],
            on_complete=lambda i: seen.append((i, env.now)))

    env.run_process(body())
    assert [i for i, _ in seen] == [0, 1, 2]
    # Completion instants are strictly increasing: one per op, not one
    # for the whole batch.
    times = [t for _, t in seen]
    assert times == sorted(times) and len(set(times)) == 3


def test_write_batch_with_tracer_matches_traced_per_op_path():
    from repro.sim import Tracer
    results = []
    for batched in (False, True):
        env = Environment()
        env.metrics = MetricsRegistry()
        tracer = Tracer()
        env.tracer = tracer
        device = BlockDevice(env, SIZE, TIMING, name="batchdev")
        ops = [(0, b"x" * 512), (512, b"y" * 512), (8192, b"z" * 512)]

        def body():
            if batched:
                yield from device.write_batch(ops)
            else:
                for offset, data in ops:
                    yield from device.write(offset, data)

        env.run_process(body())
        results.append({
            "now": env.now,
            "stats": asdict(device.stats),
            "events": env.events_dispatched,
            "trace": [(s.start, s.end, s.qualified, s.track, s.args,
                       s.segments) for s in tracer.spans],
        })
    assert results[0] == results[1]
    assert [name for _, _, name, *_ in results[0]["trace"]] == \
        ["block.write"] * 3


def test_dm_writecache_writeback_drains_through_batches():
    """The dm-writecache writeback retires via the origin's batched path:
    origin content, flush cadence, and clean-marking must look exactly
    like the historical per-op loop."""
    from repro.block import SsdDevice
    from repro.fs.dm_writecache import DmWriteCache

    env = Environment()
    ssd = SsdDevice(env, size=1 << 24)
    dm = DmWriteCache(env, ssd, cache_size=64 * 4096, autocommit_blocks=4,
                      high_watermark=0.4, low_watermark=0.1)

    def body():
        for i in range(40):
            yield from dm.write(i * 4096, bytes([i]) * 4096)
        # Give the writeback daemon room to pass both watermarks.
        yield env.timeout(1.0)

    env.run_process(body())
    assert dm.dirty_blocks() <= int(dm.low_watermark * dm.cache_capacity_blocks) + 1
    # Every block that left the dirty set really landed on the origin,
    # once (block 0's payload is all zeros, so content counts from 1).
    drained = 40 - dm.dirty_blocks()
    assert ssd.written_blocks() == ssd.stats.writes == drained
    landed = [i for i in range(1, 40)
              if ssd._read_raw(i * 4096, 4096) == bytes([i]) * 4096]
    assert len(landed) >= drained - 1 > 0
    # Autocommit barriers fired along the way.
    assert ssd.stats.flushes >= 1

    def teardown():
        yield from dm.drain()

    env.run_process(teardown(), name="drain")
    assert dm.dirty_blocks() == 0
    for i in range(40):
        assert ssd.durable_snapshot().get(i) == bytes([i]) * 4096
