"""Focused tests for the dm-writecache block target: watermarks,
throttling, and the cache/origin interplay."""


from repro.block import SsdDevice
from repro.fs import DmWriteCache
from repro.sim import Environment
from repro.units import KIB, MIB

from ..nvmm.test_device_complexity import _steps


def make_dm(cache_size=64 * KIB, **kwargs):
    env = Environment()
    ssd = SsdDevice(env, size=128 * MIB)
    dm = DmWriteCache(env, ssd, cache_size=cache_size, **kwargs)
    return env, ssd, dm


def test_dirty_blocks_tracked():
    env, _ssd, dm = make_dm(cache_size=1 * MIB)

    def body():
        for i in range(5):
            yield from dm.write(i * 4096, b"d" * 4096)
        return dm.dirty_blocks()

    assert env.run_process(body()) == 5


def test_writeback_triggers_above_high_watermark():
    env, ssd, dm = make_dm(cache_size=64 * KIB,  # 16 blocks
                           high_watermark=0.5, low_watermark=0.2)

    def body():
        for i in range(12):  # 12 dirty > 8 = 50% of 16
            yield from dm.write(i * 4096, b"w" * 4096)
        yield env.timeout(1.0)  # let the daemon drain
        return dm.dirty_blocks(), ssd.stats.writes

    dirty_after, origin_writes = env.run_process(body())
    assert origin_writes >= 8
    assert dirty_after <= 0.5 * 16


def test_full_cache_throttles_writers():
    env, _ssd, dm = make_dm(cache_size=16 * KIB,  # 4 blocks
                            high_watermark=0.99, low_watermark=0.9)
    latencies = []

    def body():
        for i in range(12):
            start = env.now
            yield from dm.write(i * 4096, b"t" * 4096)
            latencies.append(env.now - start)

    env.run_process(body())
    # Early writes absorb at NVMM speed; later ones wait for writeback.
    assert min(latencies[:3]) < 1e-4
    assert max(latencies) > 1e-4


def test_read_mixes_cache_and_origin():
    env, ssd, dm = make_dm(cache_size=1 * MIB)

    def body():
        yield from ssd.write(0, b"O" * 4096)        # only on origin
        yield from ssd.flush()
        yield from dm.write(4096, b"C" * 4096)       # only in cache
        data = yield from dm.read(0, 8192)
        return data

    data = env.run_process(body())
    assert data[:4096] == b"O" * 4096
    assert data[4096:] == b"C" * 4096


def test_drain_empties_cache_to_origin():
    env, ssd, dm = make_dm(cache_size=1 * MIB)

    def body():
        for i in range(8):
            yield from dm.write(i * 4096, bytes([i]) * 4096)
        yield from dm.drain()
        data = yield from ssd.read(3 * 4096, 4096)
        return dm.dirty_blocks(), data

    dirty, data = env.run_process(body())
    assert dirty == 0
    assert data == bytes([3]) * 4096


def test_block_rewritten_during_drain_stays_dirty_until_rewritten():
    """A write absorbed while the same block's origin write is in
    service must not be marked clean by that write's completion."""
    env, ssd, dm = make_dm(cache_size=1 * MIB)

    def body():
        yield from dm.write(0, b"A" * 4096)
        drain = env.spawn(dm.drain(), name="drain")
        yield env.timeout(5e-6)
        assert ssd.stats.writes == 1 and ssd.written_blocks() == 0  # in service
        yield from dm.write(0, b"B" * 4096)
        yield drain
        return (yield from ssd.read(0, 4096))

    assert env.run_process(body()) == b"B" * 4096
    assert dm.dirty_blocks() == 0
    assert ssd.stats.writes == 2


def test_writeback_daemon_marks_clean_what_landed_then_drain_finishes():
    """Origin content, flush cadence and clean-marking of the writeback
    loop, first from the daemon (between the watermarks) and then from
    ``drain()``."""
    env, ssd, dm = make_dm(cache_size=64 * 4096, autocommit_blocks=4,
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

    env.run_process(dm.drain(), name="drain")
    assert dm.dirty_blocks() == 0
    for i in range(40):
        assert ssd.durable_snapshot().get(i) == bytes([i]) * 4096


def test_flush_is_fast_nvmm_commit():
    env, _ssd, dm = make_dm()

    def body():
        yield from dm.write(0, b"f" * 4096)
        start = env.now
        yield from dm.flush()
        return env.now - start

    assert env.run_process(body()) < 1e-5  # psync-class, not disk-class


def test_partial_block_write_preserves_rest():
    env, _ssd, dm = make_dm()

    def body():
        yield from dm.write(0, b"A" * 4096)
        yield from dm.write(100, b"B" * 8)
        data = yield from dm.read(0, 4096)
        return data

    data = env.run_process(body())
    assert data[:100] == b"A" * 100
    assert data[100:108] == b"B" * 8
    assert data[108:] == b"A" * (4096 - 108)


def test_write_cost_is_independent_of_cached_blocks():
    """Host-independent complexity guard (see
    tests/nvmm/test_device_complexity.py): the dirty count is a set's
    ``len``, not a rescan of every cached block on every write — which
    made a sweep quadratic in the blocks written."""

    def steps(cached: int) -> int:
        env, _ssd, dm = make_dm(cache_size=64 * MIB)  # daemon stays idle

        def fill():
            for i in range(cached):
                yield from dm.write(i * 4096, b"c" * 4096)

        env.run_process(fill())
        assert dm.dirty_blocks() == cached
        count = _steps(lambda: env.run_process(dm.write(0, b"n" * 4096)))
        assert _steps(dm.dirty_blocks) == _steps(make_dm()[2].dirty_blocks)
        return count

    assert steps(16) == steps(4096)
