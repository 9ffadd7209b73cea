"""NVCache configuration (the system parameters from paper §IV-A).

Paper defaults: 4 KiB entries, a 16 M-entry log (~64 GiB), a 250 k-page
read cache (~1 GiB), batches of 1 000–10 000 entries. Simulations scale
these down; every experiment records the scale it used.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from operator import attrgetter

from ..units import KIB, MS, US

#: The cache design points, one row each: name -> (cache class, NVMM
#: sizing function, recover function) — docs/POLICIES.md "Cache modes".
#: Everything that selects, validates or enumerates modes reads this
#: table, so adding a mode is adding a row. Rows are "module:attribute"
#: specs (resolved by :func:`cache_mode_row`) because every module they
#: name imports this one.
CACHE_MODES = {
    "logging": ("nvcache:Nvcache", "log:NvmmLog.required_size",
                "recovery:recover_log"),
    "paging": ("paging:PagingCache", "paging:PagingStore.required_size",
               "paging:recover_paging"),
}

#: User-space CPU cost per intercepted operation (page-map walk, locking,
#: bookkeeping), shared by every cache mode. The write cost is the
#: calibration constant for the paper's ~500 MiB/s (Fig 4).
WRITE_OP_OVERHEAD = 3.2 * US
READ_HIT_OVERHEAD = 0.7 * US
READ_MISS_OVERHEAD = 1.5 * US


def cache_mode_row(name: str) -> tuple:
    """The (cache class, sizing function, recover function) of a mode."""
    specs = (spec.partition(":") for spec in CACHE_MODES[name])
    return tuple(attrgetter(attrs)(import_module(f".{module}", __package__))
                 for module, _, attrs in specs)


@dataclass(frozen=True)
class NvcacheConfig:
    """Tunable parameters of one NVCache instance."""

    entry_data_size: int = 4 * KIB      # payload bytes per fixed-size log entry
    log_entries: int = 16 * 1024 * 1024  # number of entries in the circular log
    read_cache_pages: int = 250_000      # page contents in the DRAM read cache
    page_size: int = 4 * KIB             # read-cache page size (power of two)
    batch_min: int = 1_000               # entries before the cleanup thread kicks in
    batch_max: int = 10_000              # max entries drained per fsync batch
    fd_max: int = 4_096                  # size of the persistent fd->path table
    path_max: int = 256                  # bytes reserved per path in NVMM
    cleanup_idle_flush: float = 50 * MS  # drain a short log (paging: flush a
                                         # short dirty set) after this idle time
    # Cache design point, a CACHE_MODES name (docs/POLICIES.md): logging
    # is the paper's NVMM log + DRAM read cache; paging is the
    # page-grained NVMM cache (page table + dirty-page writeback).
    cache_mode: str = "logging"
    paging_slots: int = 4_096            # NVMM page slots in paging mode
    paging_batch_pages: int = 64         # pages written back per sync batch

    def __post_init__(self):
        if self.page_size & (self.page_size - 1):
            raise ValueError("page_size must be a power of two")
        if self.entry_data_size <= 0 or self.log_entries <= 1:
            raise ValueError("log geometry must be positive")
        if self.batch_max < 1 or self.batch_min < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.cache_mode not in CACHE_MODES:
            raise ValueError(
                f"cache_mode must be one of {', '.join(CACHE_MODES)}")
        if self.paging_slots < 2:
            raise ValueError("paging needs at least two page slots")
        if self.paging_batch_pages < 1:
            raise ValueError("paging_batch_pages must be >= 1")


DEFAULT_CONFIG = NvcacheConfig()
