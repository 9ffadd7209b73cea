"""NOVA: a log-structured filesystem for NVMM (Xu & Swanson, FAST'16).

Modeled behaviour (what the paper's comparison depends on):

- the data path bypasses the page cache entirely: every write is a
  copy-on-write append into a per-inode log living in NVMM, made durable
  with cache-line flushes before the write returns → synchronous
  durability and durable linearizability *by default* (cow_data mode);
- every operation pays the syscall + in-kernel log-management cost, which
  is why NVCache (no syscall on the write path) edges it out in the
  paper's ideal-case Fig 4;
- capacity is limited to the NVMM size: filling it raises ENOSPC, the
  "storage space" limitation NVCache exists to remove (Table I).

Storage, capacity accounting and the page interface are the shared
:class:`~repro.fs.base.PageStoreFilesystem` (its dict stands in for
NOVA's radix tree); this module is NOVA's cost model — NVMM media costs
come from the device's timing — plus its byte-granular write.
"""

from __future__ import annotations

from typing import Generator

from ..kernel.inode import Inode
from ..kernel.page_cache import PAGE_SIZE
from ..nvmm import NvmmDevice
from ..sim import Environment
from ..units import CACHE_LINE_SIZE, US
from .base import PageStoreFilesystem


class Nova(PageStoreFilesystem):
    """Log-structured NVMM filesystem (cow_data mode)."""

    name = "nova"

    # In-kernel cost per data operation: log-entry allocation, radix-tree
    # update, inode log append bookkeeping. Calibrated so a 4 KiB
    # synchronous write lands near the paper's ~400 MiB/s (Fig 4).
    write_op_overhead = 2.0 * US
    read_op_overhead = 1.0 * US

    def __init__(self, env: Environment, nvmm: NvmmDevice):
        super().__init__(env, capacity=nvmm.size)
        self.nvmm = nvmm

    def _read_cost(self) -> float:
        return self.read_op_overhead + self.nvmm.timing.load_cost(PAGE_SIZE)

    def _write_cost(self, fresh: bool) -> float:
        # Copy-on-write append + log entry, flushed before return.
        timing = self.nvmm.timing
        return (self.write_op_overhead + timing.store_cost(PAGE_SIZE)
                + timing.flush_cost(PAGE_SIZE))

    def _commit_cost(self) -> float:
        # Data is already durable when the write returns (cow_data).
        return 0.2 * US

    def direct_write(self, inode: Inode, offset: int, data: bytes) -> Generator:
        """Byte-granular copy-on-write append/update.

        NOVA's inode log stores write entries of arbitrary length, so a
        116-byte WAL append costs a 116-byte NVMM copy plus one flush —
        not a page-sized read-modify-write. This matters for db_bench:
        key-value records are far smaller than a page.
        """
        timing = self.nvmm.timing
        yield self.env.delay(
            self.write_op_overhead
            + timing.store_cost(len(data))
            + timing.flush_base_latency
            + (len(data) // CACHE_LINE_SIZE) * timing.per_line_flush,
            "fs", "direct_write")
        pos = 0
        while pos < len(data):
            index, in_page = divmod(offset + pos, PAGE_SIZE)
            chunk = min(len(data) - pos, PAGE_SIZE - in_page)
            key = (inode.number, index)
            self._claim(key)
            page = bytearray(self._pages[key])
            page[in_page:in_page + chunk] = data[pos:pos + chunk]
            self._pages[key] = bytes(page)
            pos += chunk
        if offset + len(data) > inode.size:
            inode.size = offset + len(data)
