"""Block-device substrate: SSD and HDD latency models."""

from .device import BlockDevice, BlockStats, BlockTiming
from .hdd import HddDevice
from .ssd import FastNvmeDevice, SsdDevice, SSD_TIMING

__all__ = [
    "BlockDevice",
    "BlockStats",
    "BlockTiming",
    "SsdDevice",
    "FastNvmeDevice",
    "SSD_TIMING",
    "HddDevice",
]
