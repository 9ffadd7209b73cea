"""Ext4-like journaling filesystem on a block device.

Models the pieces that matter for the paper's evaluation:

- per-file block allocation (extent-ish: a bump allocator with a free
  list), so sequential files are laid out contiguously and the device's
  sequential/random distinction is meaningful;
- ordered-mode journaling: ``commit`` writes a commit record into the
  journal area and issues a device flush, which is why an fsync-heavy
  workload on Ext4 pays the paper's "fsync is 13x slower" toll;
- data itself reaches the device through ``write_page`` (called by the
  kernel page cache or by O_DIRECT writes).
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..block import BlockDevice
from ..kernel.costs import CpuCosts, DEFAULT_CPU
from ..kernel.errno import ENOSPC, KernelError
from ..kernel.inode import Inode
from ..kernel.page_cache import PAGE_SIZE, ZERO_PAGE
from ..sim import Environment
from ..sim.trace import traced
from ..units import MIB
from .base import Filesystem

JOURNAL_SIZE = 128 * MIB


class Ext4(Filesystem):
    """Journaled filesystem over a :class:`~repro.block.BlockDevice`."""

    uses_page_cache = True
    name = "ext4"

    def __init__(self, env: Environment, device: BlockDevice,
                 cpu: CpuCosts = DEFAULT_CPU, journal_size: int = JOURNAL_SIZE):
        super().__init__(env)
        self.device = device
        self.cpu = cpu
        self.journal_base = 0
        # A real mkfs sizes the journal to the device; never let it
        # swallow more than 1/8th of a small test device.
        self.journal_size = min(journal_size, max(PAGE_SIZE, device.size // 8))
        self.journal_cursor = 0
        self._next_block = self.journal_size // PAGE_SIZE
        self._free_blocks: List[int] = []
        self._total_blocks = device.size // PAGE_SIZE
        self._pending_journal = 0  # journal records not yet committed
        self._m_journal_commits = None
        self._m_fast_commits = None
        self._m_commit_latency = None
        if env.metrics is not None:
            self.register_metrics(env.metrics)

    def register_metrics(self, registry) -> None:
        """Expose journal activity and allocator state under
        ``fs.ext4.*`` (see docs/OBSERVABILITY.md)."""
        m = registry.scope("fs.ext4")
        self._m_journal_commits = m.counter(
            "journal_commits", unit="ops",
            help="full jbd2 commits (journal record + device flush)")
        self._m_fast_commits = m.counter(
            "fast_commits", unit="ops",
            help="fdatasync fast-path commits (no metadata pending)")
        m.gauge("journal_pending", unit="records",
                help="metadata records awaiting the next commit",
                fn=lambda: self._pending_journal)
        m.gauge("free_bytes", unit="bytes", help="unallocated data blocks",
                fn=self.free_space)
        self._m_commit_latency = m.histogram(
            "commit_latency", unit="s",
            help="fsync barrier latency incl. the device flush")

    # -- block allocation -------------------------------------------------------

    def _blocks(self, inode: Inode) -> dict:
        return inode.private.setdefault("blocks", {})

    def _allocate_block(self) -> int:
        if self._free_blocks:
            return self._free_blocks.pop()
        if self._next_block >= self._total_blocks:
            raise KernelError(ENOSPC, self.name)
        block = self._next_block
        self._next_block += 1
        return block

    def release_data(self, inode: Inode) -> None:
        blocks = inode.private.pop("blocks", {})
        self._free_blocks.extend(blocks.values())
        inode.private.pop("stale_tails", None)
        inode.size = 0

    def truncate(self, inode: Inode, size: int) -> None:
        blocks = self._blocks(inode)
        keep = (size + PAGE_SIZE - 1) // PAGE_SIZE
        stale_tails = inode.private.setdefault("stale_tails", {})
        for index in [i for i in blocks if i >= keep]:
            self._free_blocks.append(blocks.pop(index))
            stale_tails.pop(index, None)
        if size < inode.size and size % PAGE_SIZE and (keep - 1) in blocks:
            # A shrink that cuts mid-block leaves the old bytes on the
            # media past the cut. Real ext4 zeroes that tail; here we
            # remember the valid watermark so read_page keeps masking it
            # even after a later extension grows the file past this block
            # again — masking by inode.size alone stops working then
            # (found by the fuzzer: pwrite → ftruncate → extending pwrite
            # resurrected pre-truncate bytes after a crash; see
            # docs/CRASH_TESTING.md, bug 8).
            tail = size % PAGE_SIZE
            prior = stale_tails.get(keep - 1)
            stale_tails[keep - 1] = tail if prior is None else min(prior, tail)
        inode.size = size
        self._pending_journal += 1

    def free_space(self) -> int:
        return (self._total_blocks - self._next_block + len(self._free_blocks)) * PAGE_SIZE

    # -- data plane ----------------------------------------------------------------

    def read_page(self, inode: Inode, index: int) -> Generator:
        block = self._blocks(inode).get(index)
        if block is None:
            yield self.env.timeout(0.0)
            return ZERO_PAGE
        data = yield from self.device.read(block * PAGE_SIZE, PAGE_SIZE)
        # Bytes beyond EOF are never visible: a shrinking truncate leaves
        # the old contents of the partial tail block on the media, and a
        # later extension must expose a hole of zeros, not those bytes
        # (found by the crash explorer — the page cache used to mask
        # this until a crash dropped it). The stale-tail watermark covers
        # the case where the file has since grown past this block, so
        # inode.size no longer bounds the garbage (see truncate).
        valid = inode.size - index * PAGE_SIZE
        stale = inode.private.get("stale_tails", {}).get(index)
        if stale is not None:
            valid = min(valid, stale)
        if valid < PAGE_SIZE:
            if valid <= 0:
                return ZERO_PAGE
            data = data[:valid] + b"\x00" * (PAGE_SIZE - valid)
        return data

    def write_page(self, inode: Inode, index: int, data: bytes) -> Generator:
        if len(data) != PAGE_SIZE:
            data = data[:PAGE_SIZE].ljust(PAGE_SIZE, b"\x00")
        blocks = self._blocks(inode)
        block = blocks.get(index)
        if block is None:
            block = self._allocate_block()
            blocks[index] = block
            self._pending_journal += 1  # extent metadata change
        stale_tails = inode.private.get("stale_tails")
        if stale_tails:
            # The full page being written was assembled through read_page
            # (which masks the garbage), so the rewrite revalidates the
            # whole block.
            stale_tails.pop(index, None)
        yield self.env.delay(self.cpu.block_request, "fs", "block_request")
        yield from self.device.write(block * PAGE_SIZE, data)

    @traced("fs", "journal_commit")
    def commit(self, inode: Optional[Inode] = None) -> Generator:
        """fsync barrier. With pending metadata (block allocations,
        truncates) this is a full jbd2 commit: descriptor+commit record
        into the journal, then a device flush. Pure data overwrites take
        the fdatasync fast path — just the device flush — which is why an
        overwrite-heavy synchronous workload on a *fast* device
        (dm-writecache) is so much cheaper than one that allocates."""
        began = self.env.now
        tracer = self.env.tracer
        if self._pending_journal:
            if self._m_journal_commits is not None:
                self._m_journal_commits.inc()
            yield self.env.delay(self.cpu.journal_commit, "fs", "journal_cpu")
            record = b"JBD2" + bytes(PAGE_SIZE - 4)
            offset = self.journal_base + (
                self.journal_cursor % (self.journal_size // PAGE_SIZE)) * PAGE_SIZE
            yield from self.device.write(offset, record)
            # Reset only once the record reached the device: a failed
            # journal write (error injection) leaves the metadata pending
            # so the retried commit journals it again.
            self.journal_cursor += 1
            self._pending_journal = 0
            kind = "full"
        else:
            if self._m_fast_commits is not None:
                self._m_fast_commits.inc()
            yield self.env.delay(self.cpu.journal_commit / 8,
                                 "fs", "journal_cpu")
            kind = "fast"
        yield from self.device.flush()
        recorder = self.env.crash_points
        if recorder is not None:
            recorder.hit("fs.ext4.journal_commit", kind)
        if self._m_commit_latency is not None:
            trace_id = (tracer.current_trace_id(self.env)
                        if tracer is not None else None)
            self._m_commit_latency.observe(self.env.now - began,
                                           trace_id=trace_id)

    def sync(self) -> Generator:
        return self.commit()
