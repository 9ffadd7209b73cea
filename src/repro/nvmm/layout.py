"""Persistent-layout helpers: typed accessors and a region allocator.

NVCache's persistent state (log entries, path table, tail index) lives at
fixed offsets inside an NVMM device. These helpers keep the struct-packing
noise out of the cache logic and make alignment explicit.
"""

from __future__ import annotations

from typing import List, Tuple

from ..units import CACHE_LINE_SIZE
from .device import NvmmDevice


def align_up(value: int, alignment: int) -> int:
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a power of two, got {alignment}")
    return (value + alignment - 1) & ~(alignment - 1)


def read_cstring(device: NvmmDevice, addr: int, max_len: int) -> str:
    raw = device.load(addr, max_len)
    end = raw.find(b"\x00")
    if end < 0:
        end = max_len
    return raw[:end].decode("utf-8", errors="replace")


def write_cstring(device: NvmmDevice, addr: int, text: str, max_len: int) -> None:
    encoded = text.encode("utf-8")
    if len(encoded) >= max_len:
        raise ValueError(f"string of {len(encoded)} bytes does not fit in {max_len}")
    device.store(addr, encoded + b"\x00" * (max_len - len(encoded)))


class RegionAllocator:
    """Bump allocator carving named, cache-line-aligned regions from NVMM.

    The allocation plan is deterministic, so a recovery run that performs
    the same allocations finds its regions at the same offsets — exactly
    how a fixed on-media layout behaves.
    """

    def __init__(self, device: NvmmDevice, base: int = 0):
        self.device = device
        self._next = align_up(base, CACHE_LINE_SIZE)
        self.regions: List[Tuple[str, int, int]] = []

    def allocate(self, name: str, size: int, alignment: int = CACHE_LINE_SIZE) -> int:
        """Reserve ``size`` bytes; returns the region's base address."""
        if size <= 0:
            raise ValueError(f"region {name!r} must have positive size")
        base = align_up(self._next, alignment)
        if base + size > self.device.size:
            raise MemoryError(
                f"NVMM exhausted allocating {name!r}: need {size} bytes at "
                f"{base}, device holds {self.device.size}"
            )
        self._next = base + size
        self.regions.append((name, base, size))
        return base

    @property
    def used(self) -> int:
        return self._next

    @property
    def remaining(self) -> int:
        return self.device.size - self._next
