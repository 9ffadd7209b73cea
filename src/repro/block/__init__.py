"""Block-device substrate: the SSD latency model."""

from .device import BlockDevice, BlockStats, BlockTiming
from .ssd import SsdDevice, SSD_TIMING

__all__ = [
    "BlockDevice",
    "BlockStats",
    "BlockTiming",
    "SsdDevice",
    "SSD_TIMING",
]
