"""Unit tests for the NVMM device model."""

import random

import pytest

from repro.nvmm import NvmmDevice
from repro.sim import Environment
from repro.units import CACHE_LINE_SIZE


@pytest.fixture
def device():
    return NvmmDevice(Environment(), size=64 * 1024)


def test_store_then_load_sees_data(device):
    device.store(100, b"hello")
    assert device.load(100, 5) == b"hello"


def test_store_is_not_persistent_until_flushed(device):
    device.store(0, b"volatile!")
    assert device.persisted_view()[:9] == b"\x00" * 9


def test_pwb_alone_is_not_persistent(device):
    device.store(0, b"queued")
    device.pwb(0)
    assert device.persisted_view()[:6] == b"\x00" * 6


def test_pwb_pfence_persists(device):
    device.store(0, b"durable")
    device.pwb(0)
    device.pfence()
    assert device.persisted_view()[:7] == b"durable"


def test_psync_persists_and_costs_time():
    env = Environment()
    device = NvmmDevice(env, size=4096)

    def body(env):
        device.store(0, b"x" * 128)
        device.pwb_range(0, 128)
        yield from device.psync()
        return env.now

    elapsed = env.run_process(body(env))
    assert elapsed > 0
    assert device.persisted_view()[:128] == b"x" * 128


def test_pfence_only_flushes_queued_lines(device):
    device.store(0, b"aaaa")
    device.store(CACHE_LINE_SIZE, b"bbbb")
    device.pwb(0)  # only the first line
    device.pfence()
    view = device.persisted_view()
    assert view[:4] == b"aaaa"
    assert view[CACHE_LINE_SIZE:CACHE_LINE_SIZE + 4] == b"\x00" * 4


def test_pwb_range_covers_straddling_lines(device):
    start = CACHE_LINE_SIZE - 2
    device.store(start, b"spanning")
    device.pwb_range(start, 8)
    device.pfence()
    assert device.persisted_view()[start:start + 8] == b"spanning"


def test_store_straddles_many_lines(device):
    data = bytes(range(256)) * 2
    device.store(10, data)
    assert device.load(10, len(data)) == data


def test_out_of_bounds_store_rejected(device):
    with pytest.raises(ValueError):
        device.store(device.size - 2, b"toolong")


def test_out_of_bounds_load_rejected(device):
    with pytest.raises(ValueError):
        device.load(device.size, 1)


def test_negative_address_rejected(device):
    with pytest.raises(ValueError):
        device.store(-1, b"x")


def test_pwb_at_device_end_rejected(device):
    """A zero-length ``pwb_range`` at ``addr == size`` names the line one
    past the end, exactly as ``pwb(size)`` does: both are rejected and
    neither is counted, queued or charged to the next psync."""
    with pytest.raises(ValueError):
        device.pwb(device.size)
    with pytest.raises(ValueError):
        device.pwb_range(device.size, 0)
    with pytest.raises(ValueError):
        device.pwb_range(device.size - 1, 2)
    with pytest.raises(ValueError):
        device.pwb_range(8, -1)
    assert device.stats.pwbs == 0
    assert device.pfence() == 0
    # Inside the device a zero-length range still names one line.
    device.pwb_range(device.size - 1, 0)
    assert device.stats.pwbs == 1
    assert device.pfence() == 1


def test_crash_image_drops_unflushed(device):
    device.store(0, b"flushed")
    device.pwb_range(0, 7)
    device.pfence()
    device.store(1024, b"lost")
    image = device.crash_image()
    assert image[:7] == b"flushed"
    assert image[1024:1028] == b"\x00" * 4


def test_crash_image_random_eviction_may_keep_dirty(device):
    device.store(0, b"dirty")
    rng = random.Random(1)
    image = device.crash_image(rng=rng, eviction_probability=1.0)
    assert image[:5] == b"dirty"


def test_crash_image_keep_lines_keeps_exactly_those_lines(device):
    device.store(0 * CACHE_LINE_SIZE, b"AAAA")
    device.store(1 * CACHE_LINE_SIZE, b"BBBB")
    device.store(2 * CACHE_LINE_SIZE, b"CCCC")
    image = device.crash_image(keep_lines={0, 2})
    assert image[0:4] == b"AAAA"
    assert image[CACHE_LINE_SIZE:CACHE_LINE_SIZE + 4] == b"\x00" * 4
    assert image[2 * CACHE_LINE_SIZE:2 * CACHE_LINE_SIZE + 4] == b"CCCC"


def test_crash_image_keep_lines_ignores_clean_lines(device):
    """keep_lines is intersected with the dirty set: naming a flushed or
    never-written line neither duplicates nor corrupts it."""
    device.store(0, b"flushed")
    device.pwb_range(0, 7)
    device.pfence()
    device.store(CACHE_LINE_SIZE, b"dirty")
    image = device.crash_image(keep_lines={0, 1, 500})
    assert image[:7] == b"flushed"
    assert image[CACHE_LINE_SIZE:CACHE_LINE_SIZE + 5] == b"dirty"


def test_crash_image_empty_keep_lines_is_the_pure_power_cut(device):
    device.store(0, b"gone")
    image = device.crash_image(keep_lines=())
    assert image[:4] == b"\x00" * 4
    assert image == device.crash_image()


def test_crash_image_rejects_rng_combined_with_keep_lines(device):
    with pytest.raises(ValueError):
        device.crash_image(rng=random.Random(0), keep_lines={0})


def test_from_image_roundtrip():
    env = Environment()
    device = NvmmDevice(env, size=4096)
    device.store(0, b"persisted")
    device.pwb_range(0, 9)
    device.pfence()
    image = device.crash_image()
    recovered = NvmmDevice.from_image(Environment(), image)
    assert recovered.load(0, 9) == b"persisted"
    assert recovered.dirty_line_count() == 0


def test_from_image_size_mismatch_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        NvmmDevice(env, size=100, media=bytearray(50))


def test_timed_load_returns_data_and_charges_time():
    env = Environment()
    device = NvmmDevice(env, size=4096)
    device.store(8, b"timed")
    device.pwb_range(8, 5)
    device.pfence()

    def body(env):
        data = yield from device.timed_load(8, 5)
        return data, env.now

    data, elapsed = env.run_process(body(env))
    assert data == b"timed"
    assert elapsed >= device.timing.read_latency


def test_stats_counters(device):
    device.store(0, b"abc")
    device.load(0, 3)
    device.pwb(0)
    device.pfence()
    assert device.stats.stores == 1
    assert device.stats.loads == 1
    assert device.stats.pwbs == 1
    assert device.stats.pfences == 1
    assert device.stats.lines_persisted == 1
