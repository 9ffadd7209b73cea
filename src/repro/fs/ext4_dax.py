"""Ext4-DAX: Ext4 mounted with ``-o dax`` on an NVMM device.

Data reads/writes go straight to NVMM (no page cache, no bio), but the
write path still runs Ext4's generic machinery — block/extent mapping and
jbd2 journaling for metadata — which is what keeps it well behind NOVA on
synchronous 4 KiB writes in the paper (≈137 vs ≈403 MiB/s in Fig 4).

Capacity is the NVMM module's size: like NOVA, Ext4-DAX cannot hold a
working set larger than the installed NVMM (Table I).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from ..kernel.costs import CpuCosts, DEFAULT_CPU
from ..kernel.errno import ENOSPC, KernelError
from ..kernel.inode import Inode
from ..kernel.page_cache import PAGE_SIZE
from ..nvmm import NvmmDevice
from ..sim import Environment
from ..units import US
from .base import Filesystem


class Ext4Dax(Filesystem):
    """Ext4 with DAX data path on NVMM."""

    uses_page_cache = False
    name = "ext4-dax"

    # Generic ext4 write path on DAX: journal handle start/stop, extent
    # lookup, dax_iomap_rw, inode dirtying. Calibrated so a synchronous
    # 4 KiB write lands near the paper's ~137 MiB/s (Fig 4) — the paper's
    # point being precisely that the generic ext4 path squanders NVMM.
    write_op_overhead = 17.0 * US
    read_op_overhead = 1.5 * US

    def __init__(self, env: Environment, nvmm: NvmmDevice,
                 cpu: CpuCosts = DEFAULT_CPU):
        super().__init__(env)
        self.nvmm = nvmm
        self.cpu = cpu
        self._pages: Dict[tuple, bytes] = {}
        self._capacity_pages = nvmm.size // PAGE_SIZE
        self._used_pages = 0
        self.journal_cursor = 0
        self._pending_meta = 0

    def read_page(self, inode: Inode, index: int) -> Generator:
        timing = self.nvmm.timing
        yield self.env.timeout(self.read_op_overhead + timing.load_cost(PAGE_SIZE))
        return self._pages.get((inode.number, index), b"\x00" * PAGE_SIZE)

    def write_page(self, inode: Inode, index: int, data: bytes) -> Generator:
        if len(data) != PAGE_SIZE:
            data = data[:PAGE_SIZE].ljust(PAGE_SIZE, b"\x00")
        key = (inode.number, index)
        if key not in self._pages:
            if self._used_pages >= self._capacity_pages:
                raise KernelError(ENOSPC, "Ext4-DAX: NVMM full")
            self._used_pages += 1
            self._pending_meta += 1
        timing = self.nvmm.timing
        media = timing.store_cost(PAGE_SIZE)
        flush = timing.flush_base_latency + (PAGE_SIZE // 64) * timing.per_line_flush
        yield self.env.timeout(self.cpu.dax_mapping + self.write_op_overhead + media + flush)
        self._pages[key] = bytes(data)

    def commit(self, inode: Optional[Inode] = None) -> Generator:
        """jbd2 commit; the journal lives in NVMM, so the barrier is a
        psync rather than a disk flush. Pure data overwrites take the
        fdatasync fast path (no journal record)."""
        timing = self.nvmm.timing
        if self._pending_meta:
            self._pending_meta = 0
            self.journal_cursor += 1
            yield self.env.timeout(
                self.cpu.journal_commit
                + timing.store_cost(PAGE_SIZE)
                + timing.flush_base_latency
            )
        else:
            yield self.env.timeout(
                self.cpu.journal_commit / 8 + timing.flush_base_latency)

    def sync(self) -> Generator:
        return self.commit()

    def release_data(self, inode: Inode) -> None:
        for key in [k for k in self._pages if k[0] == inode.number]:
            del self._pages[key]
            self._used_pages -= 1
        inode.size = 0

    def truncate(self, inode: Inode, size: int) -> None:
        keep = (size + PAGE_SIZE - 1) // PAGE_SIZE
        for key in [k for k in self._pages if k[0] == inode.number and k[1] >= keep]:
            del self._pages[key]
            self._used_pages -= 1
        inode.size = size

    def used_bytes(self) -> int:
        return self._used_pages * PAGE_SIZE
