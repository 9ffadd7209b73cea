"""NVCache core: the paper's primary contribution."""

from .cleanup import CleanupThread, DrainThread
from .config import CACHE_MODES, DEFAULT_CONFIG, NvcacheConfig, cache_mode_row
from .files import FileTables, NvFile, NvOpenFile
from .inspect import EntrySummary, LogReport, format_report, inspect_log
from .log import (
    COMMIT_FREE,
    COMMIT_LEADER,
    FOLLOWER_BASE,
    HEADER_SIZE,
    NvmmLog,
)
from .nvcache import CacheFacade, Nvcache
from .nvlog import NvlogLite
from .paging import PagingCache, PagingStats, PagingStore, WritebackThread, recover_paging
from .policies import (
    POLICY_NAMES,
    AlruPolicy,
    CachePolicy,
    LruPolicy,
    NhitPolicy,
    make_policy,
)
from .qos import DEFAULT_CLASSES, IOClass, QosManager, TenantQos
from .radix import RadixTree
from .read_cache import PageContent, PageDescriptor, ReadCache
from .recovery import RecoveryReport, recover
from .stats import NvcacheStats

__all__ = [
    "CacheFacade",
    "DrainThread",
    "Nvcache",
    "NvlogLite",
    "PagingCache",
    "PagingStats",
    "PagingStore",
    "WritebackThread",
    "recover_paging",
    "CachePolicy",
    "LruPolicy",
    "AlruPolicy",
    "NhitPolicy",
    "make_policy",
    "POLICY_NAMES",
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
    "QosManager",
    "IOClass",
    "TenantQos",
    "DEFAULT_CLASSES",
    "RadixTree",
    "ReadCache",
    "PageDescriptor",
    "PageContent",
    "FileTables",
    "NvFile",
    "NvOpenFile",
    "recover",
    "RecoveryReport",
    "inspect_log",
    "format_report",
    "LogReport",
    "EntrySummary",
]
