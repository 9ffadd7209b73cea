"""SATA SSD model calibrated to the paper's Intel DC S4600 behaviour.

Calibration anchors (paper §IV):

- the cleanup thread drains random 4 KiB writes at ≈80 MiB/s once the log
  saturates (Fig 5) → random-write service ≈48 µs for 4 KiB;
- a synchronous random 4 KiB write (write + fsync barrier) lands near
  15 MiB/s (Fig 4: SSD takes >22 min for 20 GiB) → flush ≈210 µs;
- sequential throughput ≈450 MiB/s (S4600 spec sheet).
"""

from __future__ import annotations

from ..sim import Environment
from ..units import MIB, US
from .device import BlockDevice, BlockTiming

SSD_TIMING = BlockTiming(
    read_base=90 * US,
    write_base=39 * US,
    seq_read_base=4 * US,
    seq_write_base=2 * US,
    read_bandwidth=500 * MIB,
    write_bandwidth=460 * MIB,
    flush_latency=210 * US,
)


class SsdDevice(BlockDevice):
    """A SATA SSD (queue depth 1, volatile on-device write cache)."""

    def __init__(self, env: Environment, size: int = 480 * 10**9,
                 timing: BlockTiming = SSD_TIMING, name: str = "ssd0"):
        super().__init__(env, size, timing, name=name)

