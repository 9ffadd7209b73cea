"""Simulated filesystems: Ext4, Ext4-DAX, NOVA, tmpfs, dm-writecache."""

from .base import Filesystem, PageStoreFilesystem, split_path
from .dm_writecache import DmWriteCache
from .ext4 import Ext4
from .ext4_dax import Ext4Dax
from .nova import Nova
from .tmpfs import Tmpfs

__all__ = [
    "Filesystem",
    "PageStoreFilesystem",
    "split_path",
    "Ext4",
    "Ext4Dax",
    "Nova",
    "Tmpfs",
    "DmWriteCache",
]
