"""Ext4-DAX: Ext4 mounted with ``-o dax`` on an NVMM device.

Data reads/writes go straight to NVMM (no page cache, no bio), but the
write path still runs Ext4's generic machinery — block/extent mapping and
jbd2 journaling for metadata — which is what keeps it well behind NOVA on
synchronous 4 KiB writes in the paper (≈137 vs ≈403 MiB/s in Fig 4).

Capacity is the NVMM module's size: like NOVA, Ext4-DAX cannot hold a
working set larger than the installed NVMM (Table I).

Storage is the shared :class:`~repro.fs.base.PageStoreFilesystem`; this
module is the cost model of the generic ext4 path over DAX.
"""

from __future__ import annotations

from ..kernel.costs import CpuCosts, DEFAULT_CPU
from ..kernel.page_cache import PAGE_SIZE
from ..nvmm import NvmmDevice
from ..sim import Environment
from ..units import US
from .base import PageStoreFilesystem


class Ext4Dax(PageStoreFilesystem):
    """Ext4 with DAX data path on NVMM."""

    name = "ext4-dax"

    # Generic ext4 write path on DAX: journal handle start/stop, extent
    # lookup, dax_iomap_rw, inode dirtying. Calibrated so a synchronous
    # 4 KiB write lands near the paper's ~137 MiB/s (Fig 4) — the paper's
    # point being precisely that the generic ext4 path squanders NVMM.
    write_op_overhead = 17.0 * US
    read_op_overhead = 1.5 * US

    def __init__(self, env: Environment, nvmm: NvmmDevice,
                 cpu: CpuCosts = DEFAULT_CPU):
        super().__init__(env, capacity=nvmm.size)
        self.nvmm = nvmm
        self.cpu = cpu
        self._pending_meta = False  # block allocations since the last commit

    def _read_cost(self) -> float:
        return self.read_op_overhead + self.nvmm.timing.load_cost(PAGE_SIZE)

    def _write_cost(self, fresh: bool) -> float:
        if fresh:
            self._pending_meta = True
        timing = self.nvmm.timing
        return (self.cpu.dax_mapping + self.write_op_overhead
                + timing.store_cost(PAGE_SIZE) + timing.flush_cost(PAGE_SIZE))

    def _commit_cost(self) -> float:
        """jbd2 commit; the journal lives in NVMM, so the barrier is a
        psync rather than a disk flush. Pure data overwrites take the
        fdatasync fast path (no journal record)."""
        timing = self.nvmm.timing
        if self._pending_meta:
            self._pending_meta = False
            return (self.cpu.journal_commit
                    + timing.store_cost(PAGE_SIZE)
                    + timing.flush_base_latency)
        return self.cpu.journal_commit / 8 + timing.flush_base_latency
