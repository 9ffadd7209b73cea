"""Paging-mode NVMM cache: the Logging-vs-Paging design point.

Where :class:`~repro.core.nvcache.Nvcache` commits every write into a
circular NVMM *log* (and serves reads from a DRAM page cache), this
module keeps a page-grained NVMM cache — an NVMM-resident page table
with per-page dirty/valid state and a write-back drain to the SSD/ext4
backend, like dm-writecache but entirely in user space. It is one
``CACHE_MODES`` row: :class:`PagingCache` on the shared
:class:`~repro.core.nvcache.CacheFacade`, :class:`WritebackThread` on
the shared :class:`~repro.core.cleanup.DrainThread`, the
:class:`PagingStore` layout and :func:`recover_paging` — so
``repro.libc.NvcacheLibc``, the crash explorer, and the harness slot it
in unchanged via ``build_stack(config=...)`` with
``config.cache_mode == "paging"``.

On-media layout (all offsets fixed, so recovery finds everything)::

    file_table   fd_max * path_max bytes   (path of each file id: a PathTable)
    commit_word  u64                        (highest committed txn)
    page_meta    paging_slots * 64 bytes    (one record per page slot)
    page_data    paging_slots * page_size

Each 64-byte (one cache line) meta record is::

    u64 txn        # transaction that wrote the slot (0 = promotion)
    u64 file_id    # index into the file table
    u64 page       # page index within the file
    u64 state      # FREE / DIRTY / CLEAN
    u64 file_size  # file size as of this transaction

Commit protocol (mirrors the log's leader commit): a write transaction
stores its pages' data and DIRTY metas and ``pwb``s them, then
``pfence`` + store commit word + ``pwb`` + ``psync``. A slot is visible
to recovery only while ``0 < txn <= commit_word``, so a crash anywhere
before the commit word persists yields the before-state and a crash
after yields the after-state — atomically for the whole multi-page
write (group atomicity through the single commit word).

Write-back (the :class:`WritebackThread`) flushes committed dirty slots
to the backend in batches — ``pwrite`` + one ``sync`` per batch — and
then durably demotes them to CLEAN. The clean-mark keeps the slot's
``txn``: recovery treats a CLEAN record as a "backend already has at
least this version" marker, which is what makes lazily-cleared
superseded slots safe (the two-psync protocol in ``_flush_batch``
orders stale-meta clears strictly before clean-marks).

Eviction is LRU over CLEAN slots (a DIRTY slot holds the only copy of
its page), and a read miss is promoted into NVMM when a slot and a file
id are at hand (promotions are stored with ``txn = 0`` so a torn
promotion can never resurrect at recovery).

See docs/POLICIES.md for the full design comparison and the
``core.paging.*`` metric table.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from ..kernel.errno import EINVAL, ENOENT, KernelError
from ..kernel.fd_table import (
    O_ACCMODE,
    O_APPEND,
    O_CREAT,
    O_DIRECT,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
)
from ..nvmm import NvmmDevice, PathTable, RegionAllocator
from ..nvmm.layout import align_up
from ..sim import Environment, Lock, Waitable
from ..units import CACHE_LINE_SIZE
from .cleanup import _TICK, DrainThread
from .config import (
    DEFAULT_CONFIG,
    READ_HIT_OVERHEAD,
    READ_MISS_OVERHEAD,
    WRITE_OP_OVERHEAD,
    NvcacheConfig,
)
from .files import NvFile
from .nvcache import CacheFacade
from .recovery import RecoveryReport
from .stats import CacheStats

_META = struct.Struct("<QQQQQ")
META_SIZE = _META.size            # 40 bytes used of a 64-byte record
META_STRIDE = CACHE_LINE_SIZE     # one cache line per record

SLOT_FREE = 0
SLOT_DIRTY = 1
SLOT_CLEAN = 2

#: Dirty-slot fractions: writeback wakes at the high watermark and
#: drains down to the low one.
PAGING_WB_HIGH = 0.45
PAGING_WB_LOW = 0.40

@dataclass(slots=True)
class PagingStats(CacheStats):
    """Counters of one paging-mode cache instance (core.paging.*)."""

    page_hits: int = 0
    page_misses: int = 0
    overwrite_hits: int = 0        # written pages already resident
    fill_reads: int = 0            # partial-page writes read-filled from disk
    promotions: int = 0            # read misses admitted into NVMM
    promotions_skipped: int = 0    # no free fid or slot, or txn_lock busy
    txn_commits: int = 0
    full_waits: int = 0            # writes stalled waiting for a slot
    writeback_pages: int = 0
    writeback_batches: int = 0
    writeback_syncs: int = 0
    invalidations: int = 0         # slots durably dropped on namespace ops

    def hit_rate(self) -> float:
        total = self.page_hits + self.page_misses
        return self.page_hits / total if total else 0.0


class PagingStore:
    """The persistent page table: geometry, meta codec, file-id table."""

    __slots__ = ("env", "nvmm", "config", "paths", "commit_base",
                 "meta_base", "data_base", "slots")

    def __init__(self, env: Environment, nvmm: NvmmDevice,
                 config: NvcacheConfig, base: int = 0):
        self.env = env
        self.nvmm = nvmm
        self.config = config
        self.slots = config.paging_slots
        allocator = RegionAllocator(nvmm, base=base)
        self.paths = PathTable(allocator, "file_table", config.fd_max,
                               config.path_max)
        self.commit_base = allocator.allocate("commit_word", 8)
        self.meta_base = allocator.allocate(
            "page_meta", self.slots * META_STRIDE)
        self.data_base = allocator.allocate(
            "page_data", self.slots * config.page_size)

    @classmethod
    def required_size(cls, config: NvcacheConfig, base: int = 0) -> int:
        """NVMM bytes needed for this paging geometry."""
        line = CACHE_LINE_SIZE
        size = align_up(base, line)
        size += align_up(config.fd_max * config.path_max, line)
        size = align_up(size, line) + line  # commit word
        size = align_up(size, line) + config.paging_slots * META_STRIDE
        size = align_up(size, line) + config.paging_slots * config.page_size
        return size + line

    # -- addresses ---------------------------------------------------------

    def meta_addr(self, slot: int) -> int:
        return self.meta_base + slot * META_STRIDE

    def data_addr(self, slot: int) -> int:
        return self.data_base + slot * self.config.page_size

    # -- meta codec --------------------------------------------------------

    def read_meta(self, slot: int) -> Tuple[int, int, int, int, int]:
        """(txn, file_id, page, state, file_size) of ``slot``."""
        return _META.unpack(self.nvmm.load(self.meta_addr(slot), META_SIZE))

    def store_meta(self, slot: int, txn: int, file_id: int, page: int,
                   state: int, file_size: int) -> None:
        """Store + pwb one meta record (a single cache line, so the crash
        model makes it all-or-nothing)."""
        addr = self.meta_addr(slot)
        self.nvmm.store(addr, _META.pack(txn, file_id, page, state, file_size))
        self.nvmm.pwb(addr)

    def clear_meta(self, slot: int) -> None:
        self.store_meta(slot, 0, 0, 0, SLOT_FREE, 0)

    # -- commit word -------------------------------------------------------

    def committed_txn(self) -> int:
        return struct.unpack("<Q", self.nvmm.load(self.commit_base, 8))[0]

    def store_commit(self, txn: int) -> None:
        self.nvmm.store(self.commit_base, struct.pack("<Q", txn))
        self.nvmm.pwb(self.commit_base)


class PageSlot:
    """Volatile view of one NVMM page slot."""

    __slots__ = ("index", "state", "txn", "key", "fd", "nv_file")

    def __init__(self, index: int):
        self.index = index
        self.reset()

    def reset(self) -> None:
        """Back to FREE: the volatile half of freeing a slot (callers
        settle the media meta and the free list themselves)."""
        self.state = SLOT_FREE
        self.txn = 0
        self.key: Optional[Tuple[int, int]] = None  # (file_id, page)
        self.fd = -1                 # writing fd (writeback flushes via it)
        self.nv_file: Optional[NvFile] = None


class PagingCache(CacheFacade):
    """One paging-mode cache instance: page table + writeback thread.

    Shares :class:`~repro.core.nvcache.CacheFacade` with the logging
    modes, so the same libc wrapper, oracle, crash explorer, and
    harness drive it.
    """

    def __init__(self, env: Environment, kernel, nvmm: NvmmDevice,
                 config: NvcacheConfig = DEFAULT_CONFIG, name: str = "paging",
                 start_cleanup: bool = True):
        super().__init__(env, kernel, nvmm, config, name,
                         PagingStore.required_size(config), "paging")
        self.stats = PagingStats()
        self.store = PagingStore(env, nvmm, config)
        # Volatile slot state. The simulation is cooperative (single
        # OS thread, interleaving only at yields), so these maps need no
        # lock of their own; the txn lock below serializes the
        # *multi-yield* write, namespace and promotion critical sections.
        self.slots: List[PageSlot] = [PageSlot(i) for i in range(config.paging_slots)]
        self._free: List[int] = list(range(config.paging_slots - 1, -1, -1))
        # Mapped pages, least recently used first (the eviction order).
        self._map: Dict[Tuple[int, int], PageSlot] = {}
        self._dirty_count = 0
        # slot index -> file_id as last written to the MEDIA meta: the
        # coverage set for durable invalidation on unlink/rename/truncate
        # (a freed-but-unreused slot's stale meta still names the fid).
        self._media_fid: Dict[int, int] = {}
        # Stale superseded metas cleared+pwb'd but not yet fenced; the
        # writeback thread psyncs these BEFORE storing any clean-mark
        # (see _flush_batch for why the order matters).
        self._lazy_clears = 0
        # file-id assignment (volatile mirror of the NVMM file table).
        self._fid_by_key: Dict[Tuple[int, int], int] = {}
        self._free_fids: List[int] = list(range(config.fd_max - 1, -1, -1))
        self._next_txn = self.store.committed_txn() + 1
        self.txn_lock = Lock(env, name=f"{name}.txn")
        self._slot_waiters: List[Waitable] = []
        self.cleanup = WritebackThread(env, self, kernel, config, self.stats)
        self._m_batch_size = None
        self._start(start_cleanup)

    def register_metrics(self, registry) -> None:
        """Expose the instance under ``core.paging.*`` (the paging-mode
        mirror of ``core.nvcache.*``/``core.log.*`` — docs/POLICIES.md)."""
        stats = self.stats
        m = registry.scope("core.paging")
        self._register_shared_metrics(m, "page")
        m.counter("page_hits", unit="ops",
                  help="reads served from resident NVMM pages",
                  fn=lambda: stats.page_hits)
        m.counter("page_misses", unit="ops",
                  help="reads that went to the backend",
                  fn=lambda: stats.page_misses)
        m.counter("overwrite_hits", unit="pages",
                  help="written pages already resident (write combining)",
                  fn=lambda: stats.overwrite_hits)
        m.counter("fill_reads", unit="pages",
                  help="partial-page writes that read-filled from the "
                       "backend (paging's small-write penalty)",
                  fn=lambda: stats.fill_reads)
        m.counter("promotions", unit="pages",
                  help="read misses promoted into NVMM",
                  fn=lambda: stats.promotions)
        m.counter("promotions_skipped", unit="pages",
                  help="read misses left uncached (no free file id or "
                       "slot, or txn_lock busy)",
                  fn=lambda: stats.promotions_skipped)
        m.counter("evictions", unit="pages", help="CLEAN slots recycled",
                  fn=lambda: stats.evictions)
        m.counter("txn_commits", unit="ops",
                  help="write transactions committed (one commit-word "
                       "psync each)", fn=lambda: stats.txn_commits)
        m.counter("full_waits", unit="ops",
                  help="writes stalled waiting for a free page slot",
                  fn=lambda: stats.full_waits)
        m.counter("writeback_pages", unit="pages",
                  help="dirty pages flushed to the backend",
                  fn=lambda: stats.writeback_pages)
        m.counter("writeback_batches", unit="ops",
                  fn=lambda: stats.writeback_batches)
        m.counter("writeback_syncs", unit="ops",
                  help="sync barriers issued by the writeback thread",
                  fn=lambda: stats.writeback_syncs)
        m.counter("invalidations", unit="pages",
                  help="slots durably dropped by namespace operations",
                  fn=lambda: stats.invalidations)
        m.gauge("dirty_pages", unit="pages",
                help="committed dirty slots awaiting writeback",
                fn=lambda: self._dirty_count)
        m.gauge("resident_pages", unit="pages", help="mapped page slots",
                fn=lambda: len(self._map))
        m.gauge("occupancy", unit="ratio",
                help="resident / total slots",
                fn=lambda: len(self._map) / self.config.paging_slots)
        self._m_batch_size = m.histogram(
            "writeback_batch_pages", unit="pages",
            help="dirty pages flushed per writeback batch")

    # -- helpers -----------------------------------------------------------

    def _fid_for(self, nv_file: NvFile) -> Generator:
        """Assign (or look up) the file's durable file id. The path is
        psync'd into the file table before any meta naming the fid can
        commit, so recovery can always resolve it. With the table full,
        the oldest id whose file has no open descriptor is reclaimed
        (the caller holds ``txn_lock``)."""
        fid = self._fid_by_key.get(nv_file.key)
        if fid is None:
            if not self._free_fids:
                yield from self._reclaim_fid()
            fid = self._free_fids.pop()
            self._fid_by_key[nv_file.key] = fid
            self.store.paths.set(fid, nv_file.path)
            yield from self.nvmm.psync()
        else:
            yield self.env.timeout(0.0)
        return fid

    def _reclaim_fid(self) -> Generator:
        """Free the oldest-bound file id of a closed file: drain, then
        durably drop its slots and path, as an unlink would."""
        for key in self._fid_by_key:
            nv_file = self.tables.files.get(key)
            if nv_file is None or not nv_file.open_count:
                break
        else:
            raise KernelError(EINVAL, "paging file table exhausted")
        yield from self._invalidate_file(key)

    def _release_fid(self, nv_file: NvFile) -> None:
        fid = self._fid_by_key.pop(nv_file.key, None)
        if fid is not None:
            self.store.paths.clear(fid)
            self._free_fids.append(fid)

    def _fire_slot_waiters(self) -> None:
        waiters, self._slot_waiters = self._slot_waiters, []
        for waiter in waiters:
            waiter._fire(None)

    # -- open / kernel-level close -----------------------------------------

    def open(self, path: str, flags: int = O_RDONLY, mode: int = 0o644) -> Generator:
        self._check_path(path)
        # O_DIRECT is stripped for the same reason Nvcache strips it:
        # the cache IS the durability point, and writeback depends on
        # page-cache write combining.
        flags &= ~O_DIRECT
        if flags & O_TRUNC and (flags & O_ACCMODE) != O_RDONLY:
            # Truncate-at-open: resident pages of the old incarnation
            # must not survive the cut.
            return (yield from self._namespace_op(
                self._open(path, flags, mode), (path,), only_nonempty=True))
        return (yield from self._open(path, flags, mode))

    def _open(self, path: str, flags: int, mode: int) -> Generator:
        fd = yield from self.kernel.open(path, flags, mode)
        st = yield from self.kernel.fstat(fd)
        key = (st.st_dev, st.st_ino)
        nv_file = self.tables.file_for(key, path, st.st_size, self.env)
        if flags & O_TRUNC and (flags & O_ACCMODE) != O_RDONLY:
            nv_file.size = 0
        cursor = nv_file.size if flags & O_APPEND else 0
        self.tables.register(fd, nv_file, flags, cursor)
        return fd

    def _finalize_fd(self, fd: int) -> Generator:
        yield from self.kernel.close(fd)
        self.tables.retire_fd(fd)
        return 0

    # -- write path --------------------------------------------------------

    def pwrite(self, fd: int, data: bytes, offset: int) -> Generator:
        handle = self._handle(fd, "writing", offset)
        if not data:
            yield self.env.timeout(0.0)
            return 0
        config = self.config
        page_size = config.page_size
        first_page = offset // page_size
        last_page = (offset + len(data) - 1) // page_size
        page_count = last_page - first_page + 1
        if page_count > config.paging_slots // 2:
            raise KernelError(
                EINVAL,
                f"write spans {page_count} pages but the paging cache "
                f"only has {config.paging_slots} slots; enlarge "
                f"paging_slots or split the write")
        nv_file = handle.file
        self.stats.writes += 1
        self.stats.bytes_written += len(data)
        began = self.env.now
        tracer = self.env.tracer
        recorder = self.env.crash_points
        nvmm = self.nvmm
        store = self.store
        token = None
        if tracer is not None:
            token = tracer.begin(self.env, "core", "page_update",
                                 fd=fd, offset=offset, nbytes=len(data),
                                 pages=page_count)
        lock_began = self.env.now
        yield self.txn_lock.acquire()
        try:
            if tracer is not None:
                tracer.charge(self.env, "core", "lock_wait",
                              self.env.now - lock_began)
            yield self.env.delay(WRITE_OP_OVERHEAD, "core", "write_overhead")
            fid = yield from self._fid_for(nv_file)
            txn = self._next_txn
            self._next_txn += 1
            new_size = max(nv_file.size, offset + len(data))
            staged: List[Tuple[int, PageSlot]] = []  # (page, new slot)
            try:
                yield from self._stage_pages(
                    staged, handle, nv_file, fid, txn, data, offset,
                    first_page, last_page, new_size)
            except KernelError:
                # A fill-read hit a device fault mid-transaction: nothing
                # committed (the commit word never moved), so the staged
                # slots just return to the free list — the before-state
                # stands and the error surfaces to the application.
                for _page, slot in staged:
                    self.store.clear_meta(slot.index)
                    self._media_fid.pop(slot.index, None)
                    self._free.append(slot.index)
                raise
            # Commit: order the page data/metas, then flip the word.
            nvmm.pfence()
            store.store_commit(txn)
            if recorder is not None:
                recorder.hit("core.paging.commit_word", f"txn {txn}")
            yield from nvmm.psync()
            if recorder is not None:
                recorder.hit("core.paging.committed", f"txn {txn}")
            self.stats.txn_commits += 1
            # Post-commit, still under the lock: flip the volatile maps.
            for page, slot in staged:
                key = (fid, page)
                old = self._map.pop(key, None)
                if old is not None:
                    self._supersede(old)
                slot.state = SLOT_DIRTY
                slot.txn = txn
                slot.key = key
                slot.fd = fd
                slot.nv_file = nv_file
                self._map[key] = slot
                self._dirty_count += 1
                nv_file.pending_entries += 1
                self.tables.pending_by_fd[fd] = \
                    self.tables.pending_by_fd.get(fd, 0) + 1
            nv_file.size = new_size
        finally:
            self.txn_lock.release()
            if token is not None:
                tracer.end(self.env, token)
        self.cleanup.nudge()
        if self._m_write_latency is not None:
            self._observe_latency(self._m_write_latency, began)
        return len(data)

    def _stage_pages(self, staged, handle, nv_file: NvFile, fid: int,
                     txn: int, data: bytes, offset: int, first_page: int,
                     last_page: int, new_size: int) -> Generator:
        """Build and durably stage (store + pwb, uncommitted) one slot
        per written page."""
        config = self.config
        page_size = config.page_size
        nvmm = self.nvmm
        store = self.store
        recorder = self.env.crash_points
        fd = handle.fd
        for page in range(first_page, last_page + 1):
            base = page * page_size
            lo = max(offset, base)
            hi = min(offset + len(data), base + page_size)
            old = self._map.get((fid, page))
            buffer = bytearray(page_size)
            if old is not None:
                # Overwrite hit: seed from the resident NVMM copy —
                # unless the write covers the whole page, where the old
                # bytes are dead anyway.
                self.stats.overwrite_hits += 1
                if lo != base or hi != base + page_size:
                    piece = yield from nvmm.timed_load(
                        store.data_addr(old.index), page_size)
                    buffer[:] = piece
            elif (lo != base or hi != base + page_size) and base < nv_file.size:
                # Partial write into existing data: the paging design's
                # small-write penalty — a full-page read-fill from the
                # backend before the store. A write-only fd can't read,
                # so fill through a transient read-only descriptor.
                self.stats.fill_reads += 1
                if (handle.flags & O_ACCMODE) != O_WRONLY:
                    fill = yield from self.kernel.pread(fd, page_size, base)
                else:
                    rfd = yield from self.kernel.open(nv_file.path, O_RDONLY)
                    try:
                        fill = yield from self.kernel.pread(rfd, page_size, base)
                    finally:
                        yield from self.kernel.close(rfd)
                buffer[:len(fill)] = fill
            buffer[lo - base:hi - base] = data[lo - offset:hi - offset]
            slot = yield from self._take_slot()
            nvmm.store(store.data_addr(slot.index), bytes(buffer))
            nvmm.pwb_range(store.data_addr(slot.index), page_size)
            store.store_meta(slot.index, txn, fid, page, SLOT_DIRTY,
                             new_size)
            self._media_fid[slot.index] = fid
            if recorder is not None:
                recorder.hit("core.paging.page_stored",
                             f"txn {txn} fid {fid} page {page}")
            yield self.env.delay(
                nvmm.timing.store_cost(page_size + META_SIZE), "nvmm", "store")
            staged.append((page, slot))

    def _supersede(self, slot: PageSlot) -> None:
        """An acked newer version replaced this slot: free it and lazily
        clear its media meta (pwb only — any later fence persists it; the
        writeback thread forces the fence before it clean-marks, which is
        the only point where the stale record could start outranking)."""
        if slot.state == SLOT_DIRTY:
            self._settle_dirty(slot)
        slot.reset()
        self.store.clear_meta(slot.index)
        self._media_fid.pop(slot.index, None)
        self._lazy_clears += 1
        self._free.append(slot.index)

    def _settle_dirty(self, slot: PageSlot) -> None:
        """A DIRTY slot stops counting as pending work (written back or
        superseded)."""
        self._dirty_count -= 1
        if slot.nv_file is not None:
            slot.nv_file.pending_entries -= 1
        remaining = self.tables.pending_by_fd.get(slot.fd, 0) - 1
        self.tables.pending_by_fd[slot.fd] = max(0, remaining)

    def _take_slot(self) -> Generator:
        """A free slot: the free list, else evict the least recently used
        CLEAN slot, else wait for the writeback thread to clean one."""
        wait_began = None
        while True:
            if self._free:
                slot = self.slots[self._free.pop()]
                break
            victim = self._evict_clean()
            if victim is not None:
                slot = victim
                break
            if wait_began is None:
                wait_began = self.env.now
                self.stats.full_waits += 1
                self.cleanup.nudge()
            waiter = Waitable(self.env)
            self._slot_waiters.append(waiter)
            yield waiter
        if wait_began is not None and self.env.tracer is not None:
            self.env.tracer.charge(self.env, "core", "page_full_wait",
                                   self.env.now - wait_began)
        if wait_began is None:
            yield self.env.timeout(0.0)
        return slot

    def _touch(self, key: Tuple[int, int]) -> None:
        """A read hit: ``key`` becomes the most recently used — unless an
        eviction or invalidation unmapped it while the hit loaded."""
        slot = self._map.pop(key, None)
        if slot is not None:
            self._map[key] = slot

    def _evict_clean(self) -> Optional[PageSlot]:
        for key, slot in self._map.items():
            if slot.state == SLOT_CLEAN:
                break
        else:
            return None
        del self._map[key]
        self.stats.evictions += 1
        slot.reset()
        # No durable clear needed: recovery skips CLEAN records, and the
        # slot's next meta store overwrites this one.
        self._media_fid.pop(slot.index, None)
        return slot

    # -- read path ---------------------------------------------------------

    def pread(self, fd: int, nbytes: int, offset: int) -> Generator:
        handle = self._handle(fd, "reading", offset, nbytes)
        nv_file = handle.file
        self.stats.reads += 1
        if offset >= nv_file.size:
            yield self.env.timeout(0.0)
            return b""
        nbytes = min(nbytes, nv_file.size - offset)
        began = self.env.now
        tracer = self.env.tracer
        page_size = self.config.page_size
        fid = self._fid_by_key.get(nv_file.key)
        out = bytearray()
        position = offset
        end = offset + nbytes
        while position < end:
            page, in_page = divmod(position, page_size)
            chunk = min(end - position, page_size - in_page)
            slot = self._map.get((fid, page)) if fid is not None else None
            if slot is not None and slot.state != SLOT_FREE:
                # Hit: serve straight from the resident NVMM page.
                self.stats.page_hits += 1
                token = None
                if tracer is not None:
                    token = tracer.begin(self.env, "core", "read_hit",
                                         fd=fd, page=page)
                try:
                    piece = yield from self.nvmm.timed_load(
                        self.store.data_addr(slot.index) + in_page, chunk)
                    yield self.env.delay(READ_HIT_OVERHEAD, "core", "read_overhead")
                finally:
                    if token is not None:
                        tracer.end(self.env, token)
                self._touch((fid, page))
                out += piece
            else:
                # Miss: the backend is authoritative for non-resident
                # pages (dirty slots are never evicted, so anything
                # absent here was either written back or never cached).
                self.stats.page_misses += 1
                token = None
                if tracer is not None:
                    token = tracer.begin(self.env, "core", "read_miss",
                                         fd=fd, page=page)
                try:
                    base = page * page_size
                    data = yield from self.kernel.pread(fd, page_size, base)
                    buffer = bytearray(page_size)
                    buffer[:len(data)] = data
                    yield self.env.delay(READ_MISS_OVERHEAD, "core", "read_overhead")
                finally:
                    if token is not None:
                        tracer.end(self.env, token)
                yield from self._maybe_promote(nv_file, page, buffer)
                out += buffer[in_page:in_page + chunk]
            position += chunk
        self._account_read(len(out), began)
        return bytes(out)

    def _maybe_promote(self, nv_file: NvFile, page: int,
                       buffer: bytearray) -> Generator:
        """Promote a missed page into NVMM as a CLEAN slot with txn = 0
        (recovery ignores both CLEAN and txn-0 records, so a torn
        promotion can never resurrect) — if the file has (or can get) a
        file id, a slot is free without waiting, and ``txn_lock`` is
        free. Promotion is optional: the caller already holds the bytes.
        Never promotes over a page that became resident while the backend
        read was in flight."""
        fid = self._fid_by_key.get(nv_file.key)
        if fid is None and not self._free_fids:
            self.stats.promotions_skipped += 1
            yield self.env.timeout(0.0)
            return
        if fid is not None and (fid, page) in self._map:
            yield self.env.timeout(0.0)
            return
        if not self.txn_lock.try_acquire():
            # Busy: a namespace op may be about to release this file
            # id, and promotion is optional, so skip rather than wait.
            self.stats.promotions_skipped += 1
            yield self.env.timeout(0.0)
            return
        try:
            if self._free:
                slot = self.slots[self._free.pop()]
            else:
                slot = self._evict_clean()
            if slot is None:
                self.stats.promotions_skipped += 1
                yield self.env.timeout(0.0)
                return
            if fid is None:
                fid = yield from self._fid_for(nv_file)
            self.nvmm.store(self.store.data_addr(slot.index), bytes(buffer))
            self.nvmm.pwb_range(self.store.data_addr(slot.index),
                                self.config.page_size)
            self.store.store_meta(slot.index, 0, fid, page, SLOT_CLEAN,
                                  nv_file.size)
            self._media_fid[slot.index] = fid
            yield self.env.delay(
                self.nvmm.timing.store_cost(self.config.page_size + META_SIZE),
                "nvmm", "store")
            key = (fid, page)
            slot.state = SLOT_CLEAN
            slot.txn = 0
            slot.key = key
            slot.fd = -1
            slot.nv_file = nv_file
            self._map[key] = slot
            self.stats.promotions += 1
        finally:
            self.txn_lock.release()

    # -- namespace operations ----------------------------------------------

    def ftruncate(self, fd: int, size: int) -> Generator:
        """Drain + durably invalidate the file's resident pages, then cut
        on the backend. Invalidating everything (not just pages past the
        cut) sidesteps the stale-tail-resurrection hazard a re-extending
        write over a kept partial page would open."""
        nv_file = self._handle(fd).file
        yield from self._namespace_op(self.kernel.ftruncate(fd, size),
                                      key=nv_file.key)
        nv_file.size = size
        return 0

    def unlink(self, path: str) -> Generator:
        return self._namespace_op(self.kernel.unlink(path), (path,))

    def rename(self, old: str, new: str) -> Generator:
        result = yield from self._namespace_op(self.kernel.rename(old, new),
                                               (old, new))
        # Live handles on the moved file must carry the new name, or a
        # later write would durably bind a fid to the dead path.
        for nv_file in self.tables.files.values():
            if nv_file.path == old:
                nv_file.path = new
        return result

    def _namespace_op(self, kernel_op: Generator, paths=(), key=None,
                      only_nonempty: bool = False) -> Generator:
        """The paging namespace protocol, shared by ``open(O_TRUNC)``,
        ``ftruncate``, ``unlink`` and ``rename``: under ``txn_lock``,
        drain and durably invalidate the open file ``key`` and the file
        each of ``paths`` names, then run ``kernel_op`` (namespace ops
        are synchronous on the backend, docs/POLICIES.md). Holding the
        lock through the kernel call keeps a racing ``pwrite`` from
        committing pages under a file id released in between.
        ``only_nonempty`` skips a file that is empty on the backend and
        has no file id: it has nothing to drop."""
        yield self.txn_lock.acquire()
        try:
            if key is not None:
                yield from self._invalidate_file(key)
            for path in paths:
                try:
                    st = yield from self.kernel.stat(path)
                except KernelError as exc:
                    if exc.errno != ENOENT:
                        raise
                    continue
                file_key = (st.st_dev, st.st_ino)
                if (not only_nonempty or st.st_size
                        or file_key in self._fid_by_key):
                    yield from self._invalidate_file(file_key)
            return (yield from kernel_op)
        finally:
            self.txn_lock.release()

    def _invalidate_file(self, key: Tuple[int, int]) -> Generator:
        """Drain-then-invalidate, ``_namespace_op``'s step: flush
        every acked dirty page to the backend (so the before-state
        survives a crash anywhere in here), then durably drop every slot
        whose MEDIA meta still names this file id — including freed
        superseded slots whose stale records a reused fid could otherwise
        resurrect — and free the fid."""
        nv_file = self.tables.files.get(key)
        fid = self._fid_by_key.get(key)
        if fid is None:
            yield self.env.timeout(0.0)
            return
        yield self.cleanup.request_drain()
        cleared = 0
        for slot_index, media_fid in list(self._media_fid.items()):
            if media_fid != fid:
                continue
            self.store.clear_meta(slot_index)
            del self._media_fid[slot_index]
            cleared += 1
            slot = self.slots[slot_index]
            if slot.key is not None and slot.key[0] == fid:
                del self._map[slot.key]
                slot.reset()
                self._free.append(slot_index)
        self.store.paths.clear(fid)
        recorder = self.env.crash_points
        if recorder is not None:
            recorder.hit("core.paging.invalidated",
                         f"fid {fid} slots {cleared}")
        yield from self.nvmm.psync()
        self.stats.invalidations += cleared
        if nv_file is None:
            nv_file = self.tables.files.get(key)
        if nv_file is not None:
            self._release_fid(nv_file)
        else:
            self._fid_by_key.pop(key, None)
            self._free_fids.append(fid)
        self._fire_slot_waiters()

    def _drop_clean(self, nv_file: NvFile) -> None:
        """flock acquire: recycle the file's CLEAN residents (DIRTY ones
        are the only copy of unwritten-back data)."""
        fid = self._fid_by_key.get(nv_file.key)
        if fid is not None:
            for key, slot in list(self._map.items()):
                if key[0] == fid and slot.state == SLOT_CLEAN:
                    del self._map[key]
                    slot.reset()
                    self._media_fid.pop(slot.index, None)
                    self._free.append(slot.index)

    # -- introspection -----------------------------------------------------

    def check_invariants(self) -> None:
        """Internal consistency checks used by the property tests, at
        rest (no write or writeback batch in flight)."""
        dirty = 0
        bound_fids = set(self._fid_by_key.values())
        for key, slot in self._map.items():
            assert slot.key == key, f"slot {slot.index} key drift"
            assert key[0] in bound_fids, \
                f"slot {slot.index} mapped under unbound file id {key[0]}"
            assert slot.state in (SLOT_DIRTY, SLOT_CLEAN), \
                f"mapped slot {slot.index} in state {slot.state}"
            if slot.state == SLOT_DIRTY:
                dirty += 1
                meta = self.store.read_meta(slot.index)
                assert (meta[0], meta[3]) == (slot.txn, SLOT_DIRTY), (
                    f"dirty slot {slot.index} (txn {slot.txn}) reads "
                    f"{meta} on media")
        assert dirty == self._dirty_count, (
            f"dirty count {self._dirty_count} != mapped dirty {dirty}")
        # Slot conservation (at rest — a writer mid-fill holds a slot
        # that is on neither side yet).
        free = set(self._free)
        assert len(free) == len(self._free), "duplicate free slot index"
        mapped = {slot.index for slot in self._map.values()}
        assert not mapped & free, \
            f"mapped slots on the free list: {sorted(mapped & free)}"
        assert len(self._map) + len(self._free) == self.config.paging_slots, (
            f"slot leak: {len(self._map)} mapped + {len(self._free)} free "
            f"!= {self.config.paging_slots}")


class WritebackThread(DrainThread):
    """Background drain of committed dirty slots to the backend.

    Deliberately lock-free (it never takes ``txn_lock``): a writer
    holding the lock may be parked waiting for a free slot, and only
    this thread can produce one. Safety instead comes from volatile
    re-checks — a slot is clean-marked and demoted only if it is still
    DIRTY with the same txn it had when the batch snapshot was taken
    (a concurrent supersede changes both).

    The flush protocol per batch:

    1. ``pwrite`` each dirty page (clamped to the file's acked size),
       then ONE ``sync`` for the whole batch;
    2. ``psync`` #1 — persists any lazily-``pwb``-ed meta clears from
       superseded slots, so no stale DIRTY record with an older txn can
       outlive the clean-mark about to be written;
    3. store the CLEAN metas (keeping each slot's txn) + ``psync`` #2.

    A crash between 1 and 3 merely replays the pages (idempotent
    pwrites); a crash mid-3 leaves some slots DIRTY — also just
    replayed. Like the log-mode CleanupThread it is the wake-up source
    for drain waiters, close-headroom waiters and the cache's
    slot-full waiters.
    """

    process_name = "paging-writeback"

    def __init__(self, env: Environment, cache: "PagingCache", kernel,
                 config: NvcacheConfig, stats: PagingStats):
        super().__init__(env, kernel, cache.tables, config, stats)
        self.cache = cache
        self._kick = False
        self.high_slots = max(1, int(PAGING_WB_HIGH * config.paging_slots))
        self.low_slots = max(0, int(PAGING_WB_LOW * config.paging_slots))

    def nudge(self) -> None:
        """Writer-side hint: worth checking the watermarks before the
        next idle tick. Never forces a flush by itself — per-write
        flushing would defeat overwrite coalescing, paging's whole
        advantage."""
        if self.cache._slot_waiters or self.cache._dirty_count >= self.high_slots:
            self._kick = True

    def _drained(self, _mark: None) -> bool:
        return self.cache._dirty_count == 0

    # -- the thread body ---------------------------------------------------

    def _run(self) -> Generator:
        while self.running:
            dirty = self.cache._dirty_count
            if dirty == 0:
                self._kick = False
                self._fire_drains()
                yield from self._finalize_deferred()
                self._last_progress = self.env.now
                yield self.env.timeout(_TICK)
                continue
            urgent = (bool(self._drain_waiters)
                      or bool(self.cache._slot_waiters)
                      or self._kick
                      or dirty >= self.high_slots
                      or len(self.tables.deferred_close) > 64
                      or (self.env.now - self._last_progress
                          >= self.config.cleanup_idle_flush))
            if not urgent:
                yield self.env.timeout(_TICK)
                continue
            flushed = yield from self._flush_batch()
            if flushed:
                self._last_progress = self.env.now
                if self.cache._dirty_count <= self.low_slots:
                    self._kick = False
                self.cache._fire_slot_waiters()
                self._fire_drains()
                yield from self._finalize_deferred()
            else:
                yield self.env.timeout(_TICK / 10)

    def _collect_batch(self) -> List["PageSlot"]:
        """Oldest-committed-first snapshot of up to ``paging_batch_pages``
        dirty slots (txn order keeps sweeps deterministic)."""
        dirty = [slot for slot in self.cache.slots if slot.state == SLOT_DIRTY]
        dirty.sort(key=lambda slot: (slot.txn, slot.index))
        return dirty[:self.config.paging_batch_pages]

    def _flush_batch(self) -> Generator:
        batch = self._collect_batch()
        if not batch:
            yield self.env.timeout(0.0)
            return 0
        cache = self.cache
        nvmm = cache.nvmm
        store = cache.store
        page_size = self.config.page_size
        tracer = self.env.tracer
        token = None
        if tracer is not None:
            token = tracer.begin(self.env, "core", "writeback_batch",
                                 pages=len(batch))
        flushed: List[Tuple["PageSlot", int]] = []
        try:
            for slot in batch:
                if slot.state != SLOT_DIRTY or slot.nv_file is None:
                    continue
                fid, page = slot.key
                base = page * page_size
                txn = slot.txn
                data = yield from nvmm.timed_load(
                    store.data_addr(slot.index), page_size)
                if slot.state != SLOT_DIRTY or slot.txn != txn:
                    # Superseded during the load: the slot is free (or
                    # already reused), its nv_file/fd gone. The newer
                    # version is dirty in its own slot; skip this one.
                    continue
                # The acked size bounds what the backend may see: the
                # slot holds a zero-padded full page.
                length = min(page_size, slot.nv_file.size - base)
                if length > 0:
                    yield from self.kernel.pwrite(slot.fd, data[:length], base)
                self.stats.writeback_pages += 1
                flushed.append((slot, txn))
            if not flushed:
                if token is not None:
                    tracer.end(self.env, token, status="empty")
                    token = None
                return 0
            yield from self.kernel.sync()
            self.stats.writeback_syncs += 1
        except KernelError:
            # Injected device error: abort without clean-marking. The
            # slots stay DIRTY in NVMM, so nothing is lost and the next
            # pass retries the idempotent pwrites.
            if token is not None:
                tracer.end(self.env, token, status="aborted")
                token = None
            return 0
        # psync #1: stale-meta clears from supersedes must be on media
        # strictly before any clean-mark (resurrection hazard — see the
        # module docstring).
        if cache._lazy_clears:
            yield from nvmm.psync()
            cache._lazy_clears = 0
        recorder = self.env.crash_points
        marked: List[Tuple["PageSlot", int]] = []
        for slot, txn in flushed:
            if slot.state != SLOT_DIRTY or slot.txn != txn:
                continue  # superseded while the batch was in flight
            fid, page = slot.key
            store.store_meta(slot.index, txn, fid, page, SLOT_CLEAN,
                             slot.nv_file.size)
            if recorder is not None:
                recorder.hit("core.paging.page_cleaned",
                             f"slot {slot.index} txn {txn}")
            marked.append((slot, txn))
        yield from nvmm.psync()  # psync #2: clean-marks durable
        demoted = 0
        for slot, txn in marked:
            if slot.state != SLOT_DIRTY or slot.txn != txn:
                continue
            slot.state = SLOT_CLEAN
            cache._settle_dirty(slot)
            slot.fd = -1
            demoted += 1
        self.stats.writeback_batches += 1
        if cache._m_batch_size is not None:
            cache._m_batch_size.observe(len(flushed))
        if token is not None:
            tracer.end(self.env, token, status="retired",
                       dirty=cache._dirty_count)
        return demoted


def recover_paging(env: Environment, kernel, nvmm: NvmmDevice,
                   config: NvcacheConfig) -> Generator:
    """Replay the paging page table into the kernel after a crash.

    The winner for each (file id, page) is the valid record with the
    highest txn among DIRTY *and* CLEAN records (``0 < txn <=``
    commit word, file path bound). Only a DIRTY winner is replayed: a
    CLEAN winner certifies the backend already holds at least that
    version, and it shields any older DIRTY record of the same page
    whose lazy clear had not persisted (the resurrection hazard the
    writeback two-psync protocol exists for). Promotions carry txn 0
    and are invisible here by construction. Ends by durably emptying
    the page table. Returns a :class:`~repro.core.recovery.RecoveryReport`.
    """
    store = PagingStore(env, nvmm, config)
    report = RecoveryReport()
    committed = store.committed_txn()
    records = []
    for index in range(config.paging_slots):
        txn, fid, page, state, fsize = store.read_meta(index)
        if state == SLOT_FREE and txn == 0:
            continue
        report.entries_scanned += 1
        if state not in (SLOT_DIRTY, SLOT_CLEAN) or txn == 0 or txn > committed:
            report.entries_skipped_uncommitted += 1
            continue
        if not store.paths.get(fid):
            report.entries_skipped_uncommitted += 1
            continue
        records.append((index, txn, fid, page, state, fsize))

    winners: Dict[Tuple[int, int], tuple] = {}
    fid_sizes: Dict[int, Tuple[int, int]] = {}
    for record in records:
        index, txn, fid, page, state, fsize = record
        key = (fid, page)
        best = winners.get(key)
        if best is None or txn > best[1]:
            winners[key] = record
        size_best = fid_sizes.get(fid)
        if size_best is None or (txn, fsize) > size_best:
            fid_sizes[fid] = (txn, fsize)
    report.entries_skipped_dead += len(records) - len(winners)

    open_fds: Dict[int, int] = {}
    for key in sorted(winners):
        index, txn, fid, page, state, fsize = winners[key]
        if state != SLOT_DIRTY:
            report.entries_skipped_dead += 1
            continue
        path = store.paths.get(fid)
        live = open_fds.get(fid)
        if live is None:
            live = yield from kernel.open(path, O_RDWR | O_CREAT)
            open_fds[fid] = live
            report.files_reopened += 1
        base = page * config.page_size
        length = min(config.page_size, fid_sizes[fid][1] - base)
        if length <= 0:
            report.entries_skipped_dead += 1
            continue
        data = yield from nvmm.timed_load(store.data_addr(index), length)
        yield from kernel.pwrite(live, data, base)
        report.entries_applied += 1
        report.bytes_replayed += len(data)
        report.applied_by_path[path] = report.applied_by_path.get(path, 0) + 1

    yield from kernel.sync()

    # Durably empty the page table: clear every populated meta, every
    # file-id binding, and park the commit word at zero.
    for index in range(config.paging_slots):
        txn, _fid, _page, state, _fsize = store.read_meta(index)
        if state != SLOT_FREE or txn != 0:
            store.clear_meta(index)
    for fid in store.paths.bound():
        store.paths.clear(fid)
    store.store_commit(0)
    yield from nvmm.psync()

    for live in open_fds.values():
        yield from kernel.close(live)
    return report
