"""NVMM substrate: byte-addressable persistent memory with crash semantics."""

from .device import NvmmDevice, NvmmStats, NvmmTiming
from .layout import (
    PathTable,
    RegionAllocator,
    align_up,
    read_cstring,
    write_cstring,
)

__all__ = [
    "NvmmDevice",
    "NvmmStats",
    "NvmmTiming",
    "PathTable",
    "RegionAllocator",
    "align_up",
    "read_cstring",
    "write_cstring",
]
