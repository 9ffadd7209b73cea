"""The kernel's volatile page cache.

This is the component NVCache deliberately keeps *behind* its durable
write log: writes buffered here are combined per page, so when the cleanup
thread batches many 4 KiB writes that hit the same file page, the device
sees one page write at the next fsync (the paper's §IV-C batching effect).

Semantics modeled:

- write-back caching: ``write`` dirties pages without touching the device;
- read-after-write coherence within the kernel;
- ``fsync(inode)`` writes that inode's dirty pages (in ascending order, as
  the block layer's elevator would) and ends with a device barrier via the
  filesystem's ``commit``;
- a background writeback daemon cleans aged dirty pages;
- LRU eviction under memory pressure (clean pages first).

A crash drops every page — durability only ever comes from the device.

Who owns a page's bytes: a whole page travels as one immutable ``bytes``
object, shared by reference with the filesystem and the device below and
with the caller above (see DESIGN.md §6). :attr:`CachedPage.data` is
that shared ``bytes`` while the page is clean — what ``read_page``
returned, or what the last write-back handed to ``write_page`` — and
after a whole-page write, which adopts the caller's object. Only a
partial write copies, once, into a private ``bytearray`` that later
partial writes then combine into; write-back freezes it to ``bytes``
again. Nothing ever mutates a ``bytes`` it did not just create, so
identity doubles as a version: a page whose ``data`` is still the
payload handed to ``write_page`` was not rewritten meanwhile.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Generator, Optional, Set, Tuple

from ..sim import Environment, Lock
from ..sim.trace import traced
from .costs import CpuCosts, DEFAULT_CPU
from .inode import Inode

PAGE_SIZE = 4096
ZERO_PAGE = bytes(PAGE_SIZE)  # the one all-zero page: every hole shares it

PageKey = Tuple[int, int, int]  # (filesystem id, inode number, page index)


@dataclass(slots=True)
class CachedPage:
    data: bytes | bytearray  # bytes: shared, immutable; bytearray: private
    dirty: bool = False
    dirtied_at: float = 0.0


@dataclass(slots=True)
class PageCacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writeback_pages: int = 0
    dirty_combines: int = 0  # writes that re-dirtied an already-dirty page


class PageCache:
    """A single, kernel-global page cache (as in Linux)."""

    def __init__(self, env: Environment, cpu: CpuCosts = DEFAULT_CPU,
                 capacity_pages: int = 262144, writeback_interval: float = 5.0):
        self.env = env
        self.cpu = cpu
        self.capacity_pages = capacity_pages
        self.writeback_interval = writeback_interval
        self._pages: "OrderedDict[PageKey, CachedPage]" = OrderedDict()
        self._dirty: Dict[Tuple[int, int], Set[int]] = {}
        self._inode_locks: Dict[Tuple[int, int], Lock] = {}
        # Maps (fs_id, ino) back to live objects for dirty writeback/eviction.
        self._resolve: Dict[Tuple[int, int], tuple] = {}
        self.stats = PageCacheStats()
        self._writeback_process = None
        if env.metrics is not None:
            self.register_metrics(env.metrics)

    def register_metrics(self, registry) -> None:
        """Expose hit/miss/eviction counters and dirty/cached page gauges
        under ``kernel.page_cache.*`` (see docs/OBSERVABILITY.md)."""
        m = registry.scope("kernel.page_cache")
        stats = self.stats
        m.counter("hits", unit="ops", help="lookups served from the cache",
                  fn=lambda: stats.hits)
        m.counter("misses", unit="ops", help="lookups that went to the fs",
                  fn=lambda: stats.misses)
        m.counter("evictions", unit="pages", help="pages recycled under pressure",
                  fn=lambda: stats.evictions)
        m.counter("writeback_pages", unit="pages",
                  help="dirty pages written to the fs (fsync + daemon)",
                  fn=lambda: stats.writeback_pages)
        m.counter("dirty_combines", unit="ops",
                  help="writes absorbed by an already-dirty page "
                       "(the paper's §IV-C write combining)",
                  fn=lambda: stats.dirty_combines)
        m.gauge("dirty_pages", unit="pages", help="pages awaiting writeback",
                fn=self.dirty_page_count)
        m.gauge("cached_pages", unit="pages", help="resident page count",
                fn=self.cached_page_count)
        m.gauge("capacity_pages", unit="pages", help="eviction threshold",
                fn=lambda: self.capacity_pages)

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _inode_key(filesystem, inode: Inode) -> Tuple[int, int]:
        return (id(filesystem), inode.number)

    def _lock_for(self, filesystem, inode: Inode) -> Lock:
        key = self._inode_key(filesystem, inode)
        lock = self._inode_locks.get(key)
        if lock is None:
            lock = Lock(self.env, name=f"pagecache.ino{inode.number}")
            self._inode_locks[key] = lock
        return lock

    def _touch(self, key: PageKey) -> None:
        self._pages.move_to_end(key)

    def _mark_dirty(self, filesystem, inode: Inode, index: int, page: CachedPage) -> None:
        if page.dirty:
            self.stats.dirty_combines += 1
        else:
            page.dirty = True
            page.dirtied_at = self.env.now
            key = self._inode_key(filesystem, inode)
            indices = self._dirty.get(key)
            if indices is None:
                self._dirty[key] = {index}
            else:
                indices.add(index)

    def _clear_dirty(self, filesystem, inode: Inode, index: int, page: CachedPage) -> None:
        page.dirty = False
        key = self._inode_key(filesystem, inode)
        indices = self._dirty.get(key)
        if indices is not None:
            indices.discard(index)
            if not indices:
                del self._dirty[key]

    def dirty_page_count(self, filesystem=None, inode: Optional[Inode] = None) -> int:
        if filesystem is not None and inode is not None:
            return len(self._dirty.get(self._inode_key(filesystem, inode), ()))
        return sum(len(v) for v in self._dirty.values())

    def cached_page_count(self) -> int:
        return len(self._pages)

    # -- eviction --------------------------------------------------------------

    def _evict_if_needed(self) -> Generator:
        while len(self._pages) > self.capacity_pages:
            victim_key = None
            for key, page in self._pages.items():
                if not page.dirty:
                    victim_key = key
                    break
            if victim_key is None:
                # Everything is dirty: write back the oldest page.
                victim_key, page = next(iter(self._pages.items()))
                fs_id, ino, index = victim_key
                filesystem, inode = self._resolve[fs_id, ino]
                payload = page.data = bytes(page.data)
                yield from filesystem.write_page(inode, index, payload)
                self.stats.writeback_pages += 1
                if self._pages.get(victim_key) is not page \
                        or page.data is not payload:
                    continue  # dropped or rewritten during its write-back
                self._clear_dirty(filesystem, inode, index, page)
            del self._pages[victim_key]
            self.stats.evictions += 1

    def _remember(self, filesystem, inode: Inode) -> None:
        self._resolve[(id(filesystem), inode.number)] = (filesystem, inode)

    # -- data plane ----------------------------------------------------------------

    def read(self, filesystem, inode: Inode, offset: int, nbytes: int) -> Generator:
        """Read through the cache. Returns up to ``nbytes`` bytes, clipped
        at the inode's current size."""
        if offset >= inode.size:
            yield self.env.delay(self.cpu.page_cache_lookup,
                                 "kernel", "page_cache_lookup")
            return b""
        nbytes = min(nbytes, inode.size - offset)
        self._remember(filesystem, inode)
        lock = self._lock_for(filesystem, inode)
        yield lock.acquire()
        try:
            parts = []
            pos = offset
            end = offset + nbytes
            while pos < end:
                index, in_page = divmod(pos, PAGE_SIZE)
                chunk = min(end - pos, PAGE_SIZE - in_page)
                key = (id(filesystem), inode.number, index)
                yield self.env.delay(self.cpu.page_cache_lookup,
                                     "kernel", "page_cache_lookup")
                page = self._pages.get(key)
                if page is None:
                    self.stats.misses += 1
                    data = yield from filesystem.read_page(inode, index)
                    page = CachedPage(bytes(data))
                    self._pages[key] = page
                    if len(self._pages) > self.capacity_pages:
                        yield from self._evict_if_needed()
                else:
                    self.stats.hits += 1
                    self._touch(key)
                parts.append(page.data[in_page:in_page + chunk])
                pos += chunk
            # copy_to_user
            yield self.env.delay(self.cpu.copy_cost(nbytes), "kernel", "copy")
            return b"".join(parts)
        finally:
            lock.release()

    def write(self, filesystem, inode: Inode, offset: int, data: bytes) -> Generator:
        """Buffered write: dirty pages only, no device I/O."""
        self._remember(filesystem, inode)
        lock = self._lock_for(filesystem, inode)
        yield lock.acquire()
        try:
            pos = 0
            while pos < len(data):
                absolute = offset + pos
                index, in_page = divmod(absolute, PAGE_SIZE)
                chunk = min(len(data) - pos, PAGE_SIZE - in_page)
                key = (id(filesystem), inode.number, index)
                yield self.env.delay(self.cpu.page_cache_lookup,
                                     "kernel", "page_cache_lookup")
                page = self._pages.get(key)
                if page is None:
                    partial = in_page != 0 or chunk != PAGE_SIZE
                    covers_tail = absolute + chunk >= inode.size
                    if partial and not (in_page == 0 and covers_tail):
                        # Read-modify-write for a partial page inside the file.
                        data_in = yield from filesystem.read_page(inode, index)
                        page = CachedPage(bytes(data_in))
                    else:
                        page = CachedPage(ZERO_PAGE)
                    self._pages[key] = page
                    self.stats.misses += 1
                else:
                    self.stats.hits += 1
                    self._touch(key)
                piece = data[pos:pos + chunk]
                if chunk == PAGE_SIZE:
                    # Whole page: adopt the caller's bytes (``bytes(x)`` is
                    # ``x`` itself for a bytes object, a copy otherwise).
                    page.data = bytes(piece)
                else:
                    if type(page.data) is not bytearray:
                        page.data = bytearray(page.data)  # shared: copy first
                    page.data[in_page:in_page + chunk] = piece
                # Dirty BEFORE any eviction pass, so the fresh page cannot
                # be recycled while still clean and lose this write.
                self._mark_dirty(filesystem, inode, index, page)
                if len(self._pages) > self.capacity_pages:
                    yield from self._evict_if_needed()
                pos += chunk
            # copy_from_user
            yield self.env.delay(self.cpu.copy_cost(len(data)), "kernel", "copy")
            if offset + len(data) > inode.size:
                inode.size = offset + len(data)
        finally:
            lock.release()

    def fsync(self, filesystem, inode: Inode) -> Generator:
        """Flush the inode's dirty pages then commit (journal + barrier)."""
        lock = self._lock_for(filesystem, inode)
        yield lock.acquire()
        try:
            key = self._inode_key(filesystem, inode)
            indices = sorted(self._dirty.get(key, ()))
            for index in indices:
                page_key = (id(filesystem), inode.number, index)
                page = self._pages.get(page_key)
                if page is None or not page.dirty:
                    continue  # cleaned or evicted by a concurrent writeback
                payload = page.data = bytes(page.data)
                yield from filesystem.write_page(inode, index, payload)
                self.stats.writeback_pages += 1
                if self._pages.get(page_key) is page and page.data is payload:
                    self._clear_dirty(filesystem, inode, index, page)
        finally:
            lock.release()
        yield from filesystem.commit(inode)

    @traced("kernel", "writeback")
    def writeback_pass(self, min_age: float = 0.0) -> Generator:
        """Background flusher: clean dirty pages older than ``min_age``.

        No barrier — plain writeback does not flush device caches.
        """
        now = self.env.now
        for key in list(self._dirty.keys()):
            fs_id, ino = key
            entry = self._resolve.get(key)
            if entry is None:
                continue
            filesystem, inode = entry
            for index in sorted(self._dirty.get(key, set())):
                page_key = (fs_id, ino, index)
                page = self._pages.get(page_key)
                if page is None or not page.dirty:
                    continue
                if now - page.dirtied_at < min_age:
                    continue
                # Published before the yield: a writer that gets in during
                # the write-back replaces the object (and a truncate the
                # page), so what it wrote stays dirty for the next pass.
                payload = page.data = bytes(page.data)
                yield from filesystem.write_page(inode, index, payload)
                self.stats.writeback_pages += 1
                if self._pages.get(page_key) is page and page.data is payload:
                    self._clear_dirty(filesystem, inode, index, page)

    def start_writeback_daemon(self) -> None:
        """Spawn the periodic flusher (pdflush/bdi writeback analogue)."""

        def daemon():
            while True:
                yield self.env.timeout(self.writeback_interval)
                yield from self.writeback_pass(min_age=self.writeback_interval)

        self._writeback_process = self.env.spawn(daemon(), name="writeback")

    def truncate(self, filesystem, inode: Inode, size: int) -> None:
        """Drop cached pages beyond ``size`` and zero the tail of the
        boundary page (dirty pages below the cut survive)."""
        fs_id = id(filesystem)
        keep = (size + PAGE_SIZE - 1) // PAGE_SIZE
        for key in [k for k in self._pages
                    if k[0] == fs_id and k[1] == inode.number and k[2] >= keep]:
            page = self._pages.pop(key)
            if page.dirty:
                self._clear_dirty(filesystem, inode, key[2], page)
        boundary_index, in_page = divmod(size, PAGE_SIZE)
        if in_page:
            page = self._pages.get((fs_id, inode.number, boundary_index))
            if page is not None:
                # A new object, never an in-place edit of a shared one.
                page.data = bytes(page.data[:in_page]) \
                    + bytes(PAGE_SIZE - in_page)

    def invalidate(self, filesystem, inode: Inode) -> None:
        """Drop every page of an inode (used by truncate/unlink)."""
        fs_id = id(filesystem)
        for key in [k for k in self._pages if k[0] == fs_id and k[1] == inode.number]:
            del self._pages[key]
        self._dirty.pop((fs_id, inode.number), None)

    def crash(self) -> None:
        """Power loss: all cached (including dirty) pages vanish."""
        self._pages.clear()
        self._dirty.clear()
