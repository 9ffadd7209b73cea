"""Rotational hard-drive model with head-position-dependent seeks.

Not part of the paper's testbed, but the paper argues (§I) that NVCache
inherits the kernel's arm-movement optimizations for hard drives; this
model lets the ablation benchmarks demonstrate that batching+combining in
the page cache helps an HDD-backed NVCache even more than an SSD-backed
one.
"""

from __future__ import annotations

from ..sim import Environment
from ..units import MIB, MS, US
from .device import BlockDevice, BlockTiming

HDD_TIMING = BlockTiming(
    read_base=0.0,  # seek model supplies the latency
    write_base=0.0,
    seq_read_base=0.0,
    seq_write_base=0.0,
    read_bandwidth=160 * MIB,
    write_bandwidth=150 * MIB,
    flush_latency=8 * MS,
)


class HddDevice(BlockDevice):
    """7200 RPM drive: seek cost grows with head travel distance."""

    FULL_SEEK = 9 * MS
    TRACK_SKEW = 0.5 * MS
    ROTATIONAL_HALF = 4.17 * MS  # half a rotation at 7200 RPM

    def __init__(self, env: Environment, size: int = 2 * 10**12, name: str = "hdd0"):
        super().__init__(env, size, HDD_TIMING, name=name)
        self._head = 0

    def _seek_time(self, offset: int) -> float:
        distance = abs(offset - self._head)
        if distance == 0:
            return 50 * US  # settled on track, next sector
        fraction = min(1.0, distance / self.size)
        return self.TRACK_SKEW + fraction * self.FULL_SEEK + self.ROTATIONAL_HALF

    def _write_service_time(self, offset: int, nbytes: int) -> float:
        seek = self._seek_time(offset)
        if offset == self._last_write_end:
            self.stats.sequential_writes += 1
        else:
            self.stats.random_writes += 1
        self._head = offset + nbytes
        return seek + nbytes / self.timing.write_bandwidth

    def _read_service_time(self, offset: int, nbytes: int) -> float:
        seek = self._seek_time(offset)
        self._head = offset + nbytes
        return seek + nbytes / self.timing.read_bandwidth
