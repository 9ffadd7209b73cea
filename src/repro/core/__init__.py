"""NVCache core: the paper's primary contribution."""

from .cleanup import CleanupThread, DrainThread
from .config import CACHE_MODES, DEFAULT_CONFIG, NvcacheConfig, cache_mode_row
from .files import FileTables, NvFile, NvOpenFile
from .log import (
    COMMIT_FREE,
    COMMIT_LEADER,
    FOLLOWER_BASE,
    HEADER_SIZE,
    NvmmLog,
)
from .nvcache import CacheFacade, Nvcache
from .paging import PagingCache, PagingStats, PagingStore, WritebackThread, recover_paging
from .read_cache import PageContent, PageDescriptor, ReadCache
from .recovery import RecoveryReport, recover
from .stats import NvcacheStats

__all__ = [
    "CacheFacade",
    "DrainThread",
    "Nvcache",
    "PagingCache",
    "PagingStats",
    "PagingStore",
    "WritebackThread",
    "recover_paging",
    "NvcacheConfig",
    "DEFAULT_CONFIG",
    "CACHE_MODES",
    "cache_mode_row",
    "NvcacheStats",
    "NvmmLog",
    "COMMIT_FREE",
    "COMMIT_LEADER",
    "FOLLOWER_BASE",
    "HEADER_SIZE",
    "CleanupThread",
    "ReadCache",
    "PageDescriptor",
    "PageContent",
    "FileTables",
    "NvFile",
    "NvOpenFile",
    "recover",
    "RecoveryReport",
]
