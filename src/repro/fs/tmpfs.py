"""tmpfs: data lives only in DRAM; no durability whatsoever.

The paper's Fig 3 uses tmpfs as the "no persistence" upper bound for the
write-heavy workloads; a crash loses everything. Storage is the shared
:class:`~repro.fs.base.PageStoreFilesystem`, unbounded; this module is
the shmem cost model and the crash behaviour.
"""

from __future__ import annotations

from ..kernel.costs import CpuCosts, DEFAULT_CPU
from ..kernel.page_cache import PAGE_SIZE
from ..sim import Environment
from ..units import US
from .base import PageStoreFilesystem


class Tmpfs(PageStoreFilesystem):
    """RAM-backed filesystem (no page cache: its backing store *is* memory
    already); ``commit`` is (almost) free and meaningless."""

    name = "tmpfs"
    op_overhead = 0.4 * US  # shmem lookup path

    def __init__(self, env: Environment, cpu: CpuCosts = DEFAULT_CPU):
        super().__init__(env)
        self.cpu = cpu

    def _read_cost(self) -> float:
        return self.op_overhead + self.cpu.copy_cost(PAGE_SIZE)

    def _write_cost(self, fresh: bool) -> float:
        return self.op_overhead + self.cpu.copy_cost(PAGE_SIZE)

    def _commit_cost(self) -> float:
        return 0.1 * US  # noop_fsync

    def crash(self) -> None:
        """Power loss: everything is gone."""
        self._pages.clear()
        # The namespace vanishes too; rebuild an empty root.
        self.root.private["children"] = {}
