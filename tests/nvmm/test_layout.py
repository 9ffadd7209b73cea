"""Unit tests for persistent layout helpers."""

import pytest

from repro.nvmm import (
    NvmmDevice,
    RegionAllocator,
    align_up,
    read_cstring,
    write_cstring,
)
from repro.sim import Environment
from repro.units import CACHE_LINE_SIZE


@pytest.fixture
def device():
    return NvmmDevice(Environment(), size=8 * 1024)


def test_align_up():
    assert align_up(0, 64) == 0
    assert align_up(1, 64) == 64
    assert align_up(64, 64) == 64
    assert align_up(65, 64) == 128


def test_align_up_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        align_up(10, 48)


def test_cstring_roundtrip(device):
    write_cstring(device, 256, "/tmp/data.db", 64)
    assert read_cstring(device, 256, 64) == "/tmp/data.db"


def test_cstring_too_long_rejected(device):
    with pytest.raises(ValueError):
        write_cstring(device, 0, "x" * 64, 64)


def test_cstring_empty(device):
    write_cstring(device, 0, "", 16)
    assert read_cstring(device, 0, 16) == ""


def test_allocator_is_aligned(device):
    alloc = RegionAllocator(device)
    a = alloc.allocate("a", 10)
    b = alloc.allocate("b", 100)
    assert a % CACHE_LINE_SIZE == 0
    assert b % CACHE_LINE_SIZE == 0
    assert b >= a + 10


def test_allocator_deterministic(device):
    plan1 = RegionAllocator(device)
    offsets1 = [plan1.allocate(f"r{i}", 100 + i) for i in range(5)]
    device2 = NvmmDevice(Environment(), size=8 * 1024)
    plan2 = RegionAllocator(device2)
    offsets2 = [plan2.allocate(f"r{i}", 100 + i) for i in range(5)]
    assert offsets1 == offsets2


def test_allocator_exhaustion(device):
    alloc = RegionAllocator(device)
    with pytest.raises(MemoryError):
        alloc.allocate("huge", device.size + 1)


def test_allocator_rejects_empty_region(device):
    alloc = RegionAllocator(device)
    with pytest.raises(ValueError):
        alloc.allocate("zero", 0)


def test_allocator_bookkeeping(device):
    alloc = RegionAllocator(device)
    alloc.allocate("a", 128)
    assert alloc.used >= 128
    assert alloc.remaining == device.size - alloc.used
    assert alloc.regions[0][0] == "a"
