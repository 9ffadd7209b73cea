"""Unit tests for the block-device models."""

import pytest

from repro.block import SsdDevice
from repro.obs import MetricsRegistry
from repro.sim import Environment
from repro.units import MIB


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def ssd(env):
    return SsdDevice(env, size=64 * MIB)


def run(env, gen):
    return env.run_process(gen)


def test_write_read_roundtrip(env, ssd):
    def body():
        yield from ssd.write(4096, b"hello ssd")
        data = yield from ssd.read(4096, 9)
        return data

    assert run(env, body()) == b"hello ssd"


def test_unwritten_reads_as_zero(env, ssd):
    def body():
        data = yield from ssd.read(0, 16)
        return data

    assert run(env, body()) == b"\x00" * 16


def test_write_straddling_blocks(env, ssd):
    payload = bytes(range(200)) * 30  # 6000 bytes, crosses a 4 KiB boundary

    def body():
        yield from ssd.write(4000, payload)
        data = yield from ssd.read(4000, len(payload))
        return data

    assert run(env, body()) == payload


def test_out_of_bounds_rejected(env, ssd):
    with pytest.raises(ValueError):
        next(ssd.write(ssd.size, b"x"))
    with pytest.raises(ValueError):
        next(ssd.read(-1, 4))


def test_random_write_slower_than_sequential(env, ssd):
    def timed(offsets):
        start = env.now
        for off in offsets:
            yield from ssd.write(off, b"x" * 4096)
        return env.now - start

    seq = run(env, timed([i * 4096 for i in range(64)]))
    rand = run(env, timed([((i * 37) % 64) * 4096 + 8 * MIB for i in range(64)]))
    assert rand > 2 * seq


def test_flush_makes_writes_durable(env, ssd):
    def body():
        yield from ssd.write(0, b"fragile")
        ssd.crash()
        data = yield from ssd.read(0, 7)
        assert data == b"\x00" * 7
        yield from ssd.write(0, b"durable")
        yield from ssd.flush()
        ssd.crash()
        data = yield from ssd.read(0, 7)
        return data

    assert run(env, body()) == b"durable"


def test_flush_cost_dominates_small_sync_write(env, ssd):
    def body():
        start = env.now
        yield from ssd.write(12345 * 4096, b"y" * 4096)
        write_time = env.now - start
        start = env.now
        yield from ssd.flush()
        flush_time = env.now - start
        return write_time, flush_time

    write_time, flush_time = run(env, body())
    assert flush_time > 3 * write_time


def test_ssd_random_write_drain_rate_near_80mib(env, ssd):
    """Calibration anchor for Fig 5: batched random 4 KiB writes ~80 MiB/s."""
    count = 2000

    def body():
        start = env.now
        for i in range(count):
            offset = ((i * 2654435761) % (ssd.size // 4096)) * 4096
            yield from ssd.write(offset, b"z" * 4096)
        return count * 4096 / (env.now - start)

    rate = run(env, body())
    assert 60 * MIB < rate < 110 * MIB


def test_ssd_sync_write_rate_near_15mib(env, ssd):
    """Calibration anchor for Fig 4: per-write fsync ~15 MiB/s."""
    count = 300

    def body():
        start = env.now
        for i in range(count):
            offset = ((i * 2654435761) % (ssd.size // 4096)) * 4096
            yield from ssd.write(offset, b"z" * 4096)
            yield from ssd.flush()
        return count * 4096 / (env.now - start)

    rate = run(env, body())
    assert 10 * MIB < rate < 22 * MIB


def test_device_serializes_requests(env, ssd):
    finish_times = []

    def writer(i):
        yield from ssd.write(i * 4096 + 32 * MIB, b"w" * 4096)
        finish_times.append(env.now)

    for i in range(4):
        env.spawn(writer(i))
    env.run()
    assert len(finish_times) == 4
    assert finish_times == sorted(finish_times)
    assert len(set(finish_times)) == 4  # strictly serialized


def test_stats_accumulate(env, ssd):
    def body():
        yield from ssd.write(0, b"x" * 4096)
        yield from ssd.read(0, 4096)
        yield from ssd.flush()

    run(env, body())
    assert ssd.stats.writes == 1
    assert ssd.stats.reads == 1
    assert ssd.stats.flushes == 1
    assert ssd.stats.bytes_written == 4096
    assert ssd.stats.bytes_read == 4096
    assert ssd.stats.busy_time > 0


# -- one immutable bytes object per whole block (DESIGN.md §6) ---------------

BLOCK = 4096


def test_whole_block_is_adopted_and_handed_out_by_reference(env, ssd):
    """The memory guard: the page the kernel wrote *is* the block the
    device holds and the block a reader gets; N whole-block writes of one
    object store one object."""
    payload = bytes(range(256)) * 16

    def body():
        for block in range(8):
            yield from ssd.write(block * BLOCK, payload)
        cached = yield from ssd.read(3 * BLOCK, BLOCK)
        yield from ssd.flush()
        durable = yield from ssd.read(3 * BLOCK, BLOCK)
        hole = yield from ssd.read(100 * BLOCK, BLOCK)
        return cached, durable, hole

    cached, durable, hole = run(env, body())
    assert cached is payload and durable is payload
    assert all(block is payload for block in ssd.durable_snapshot().values())
    assert hole == bytes(BLOCK) and hole is run(env, ssd.read(200 * BLOCK, BLOCK))


@pytest.mark.parametrize("mutable", [bytearray, memoryview],
                         ids=["bytearray", "memoryview"])
def test_mutable_buffer_handed_to_write_is_copied(env, ssd, mutable):
    backing = bytearray(b"k" * BLOCK)

    def body():
        yield from ssd.write(0, mutable(backing))
        backing[:] = b"!" * BLOCK  # the caller reuses its buffer
        data = yield from ssd.read(0, BLOCK)
        return data

    data = run(env, body())
    assert type(data) is bytes and data == b"k" * BLOCK


def test_partial_block_write_builds_a_new_block_object(env, ssd):
    """A block object handed out earlier never changes under the reader."""
    payload = b"o" * BLOCK

    def body():
        yield from ssd.write(0, payload)
        before = yield from ssd.read(0, BLOCK)
        yield from ssd.write(10, b"NEW")
        after = yield from ssd.read(0, BLOCK)
        return before, after

    before, after = run(env, body())
    assert before is payload and payload == b"o" * BLOCK
    assert after == b"o" * 10 + b"NEW" + b"o" * (BLOCK - 13)


def test_queue_depth_gauge_counts_in_flight_and_queued():
    env = Environment()
    env.metrics = MetricsRegistry()
    ssd = SsdDevice(env, size=64 * MIB, name="ssd0")
    depths = []

    def depth():
        return env.metrics.snapshot()["block.ssd0.queue_depth"]

    def writer(offset):
        yield from ssd.write(offset, b"w" * 4096)

    def probe():
        depths.append(depth())
        yield env.timeout(1e-9)  # first write in service, second queued
        depths.append(depth())

    env.spawn(probe())
    env.spawn(writer(0))
    env.spawn(writer(MIB))
    env.run()
    depths.append(depth())
    assert depths == [0, 2, 0]
