"""Persistent-layout helpers: typed accessors, a region allocator and
the path table.

NVCache's persistent state (log entries, path table, tail index) lives at
fixed offsets inside an NVMM device. These helpers keep the struct-packing
noise out of the cache logic and make alignment explicit.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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


class PathTable:
    """``slots`` NUL-terminated paths of ``path_max`` bytes each, the
    first region of every cache layout: the log's fd -> path table and
    paging's file id -> path table. It is recovery's only name source.

    ``set`` and ``clear`` store and ``pwb``; the caller places the
    ``psync``, since the log makes each binding durable on its own and
    paging batches its clears with the metas they release.
    """

    __slots__ = ("device", "base", "slots", "path_max")

    def __init__(self, allocator: RegionAllocator, name: str, slots: int,
                 path_max: int):
        self.device = allocator.device
        self.base = allocator.allocate(name, slots * path_max)
        self.slots = slots
        self.path_max = path_max

    def _addr(self, index: int) -> int:
        if index < 0 or index >= self.slots:
            raise ValueError(f"path slot {index} outside table of {self.slots}")
        return self.base + index * self.path_max

    def set(self, index: int, path: str) -> None:
        addr = self._addr(index)
        write_cstring(self.device, addr, path, self.path_max)
        self.device.pwb_range(addr, self.path_max)

    def clear(self, index: int) -> None:
        addr = self._addr(index)
        self.device.store(addr, b"\x00")
        self.device.pwb(addr)

    def get(self, index: int) -> str:
        return read_cstring(self.device, self._addr(index), self.path_max)

    def bound(self) -> Dict[int, str]:
        """index -> path for every occupied slot (a full scan)."""
        return {index: path for index in range(self.slots)
                if (path := self.get(index))}
