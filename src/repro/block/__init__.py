"""Block-device substrate: SSD, HDD and RAM-disk latency models."""

from .device import BlockDevice, BlockStats, BlockTiming
from .hdd import HddDevice
from .ramdisk import RamDisk
from .ssd import FastNvmeDevice, SsdDevice, SSD_TIMING

__all__ = [
    "BlockDevice",
    "BlockStats",
    "BlockTiming",
    "SsdDevice",
    "FastNvmeDevice",
    "SSD_TIMING",
    "HddDevice",
    "RamDisk",
]
