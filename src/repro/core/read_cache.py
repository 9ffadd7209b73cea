"""NVCache's user-space read cache (paper §II-C, §II-D).

Page descriptors live in each file's page map and exist in three
states (Table II of the paper):

- *loaded*: a :class:`PageContent` is attached; the content is always
  kept consistent with pending writes;
- *unloaded-dirty*: no content, but the NVMM log holds entries that
  modify the page (``dirty_counter > 0``);
- *unloaded-clean*: no content, no pending entries.

A descriptor's pending-entry index (the log sequence numbers of the
entries that modify the page, in log order) is a container of its own
only while the page has pending entries; a page with none shares the
empty tuple, which keeps a clean descriptor at a quarter of the bytes.
The dirty counter is the length of that index.

Eviction is the paper's LRU approximation (a CLOCK): a FIFO queue of
page contents protected by the LRU lock; the head is recycled unless its
``accessed`` flag grants a second chance.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, Optional, Tuple, Union

from ..sim import Environment, Lock
from .stats import NvcacheStats


class PageContent:
    """A cached page's bytes; recycled between descriptors on eviction."""

    __slots__ = ("data", "descriptor")

    def __init__(self, page_size: int):
        self.data = bytearray(page_size)
        self.descriptor: Optional["PageDescriptor"] = None


class PageDescriptor:
    """Per-page state: the two locks, the dirty counter, and the pending
    log entries touching this page (the volatile index the dirty-miss
    procedure walks instead of scanning the whole log).

    ``pending`` holds the page's pending sequence numbers in ascending
    (log) order. It is the shared empty tuple while there are none; a
    writer gives the page a ``deque`` of its own with its first pending
    seq, and the drain puts the empty tuple back when it retires the
    last one. A writer replaces the container under the page's atomic
    lock and the drain under its cleanup lock, which is safe only
    because neither yields between reading ``pending`` and replacing
    it. Only code holding *both* page locks (the dirty-miss loop of
    ``Nvcache._load_page``) may keep iterating the container across a
    ``yield``."""

    __slots__ = ("index", "atomic_lock", "cleanup_lock", "accessed",
                 "content", "pending")

    def __init__(self, env: Environment, index: int):
        self.index = index
        self.atomic_lock = Lock(env, name="page.atomic")
        self.cleanup_lock = Lock(env, name="page.cleanup")
        self.accessed = False
        self.content: Optional[PageContent] = None
        self.pending: Union[Tuple[()], Deque[int]] = ()  # log seqs, ascending

    @property
    def dirty_counter(self) -> int:
        """Pending log entries touching this page (paper Table II)."""
        return len(self.pending)

    @property
    def loaded(self) -> bool:
        return self.content is not None

    @property
    def state(self) -> str:
        """Table II state name (for tests and debugging)."""
        if self.loaded:
            return "loaded"
        return "unloaded-dirty" if self.dirty_counter > 0 else "unloaded-clean"


class ReadCache:
    """The global pool of page contents with CLOCK eviction."""

    def __init__(self, env: Environment, capacity_pages: int, page_size: int,
                 stats: Optional[NvcacheStats] = None):
        if capacity_pages < 1:
            raise ValueError("read cache needs at least one page")
        self.env = env
        self.capacity = capacity_pages
        self.page_size = page_size
        self.stats = stats or NvcacheStats()
        self.lru_lock = Lock(env, name="readcache.lru")
        self._queue: Deque[PageContent] = deque()  # loaded contents, FIFO
        self._allocated = 0

    def loaded_pages(self) -> int:
        return len(self._queue)

    def note_access(self, descriptor: PageDescriptor) -> None:
        """Record a hit on a loaded page (its CLOCK bit)."""
        descriptor.accessed = True

    def allocate_content(self) -> Generator:
        """Return a free PageContent, evicting (CLOCK) if at capacity.

        The caller must NOT hold the LRU lock; it holds the atomic lock
        of the page being *loaded*, which is never a queue member, so
        taking queue members' atomic locks here cannot deadlock.
        """
        yield self.lru_lock.acquire()
        try:
            if self._allocated < self.capacity:
                self._allocated += 1
                return PageContent(self.page_size)
            while True:
                attempts = len(self._queue)
                for _ in range(attempts):
                    content = self._queue.popleft()
                    descriptor = content.descriptor
                    # try-lock, not a blocking acquire: the holder of this
                    # atomic lock may itself be waiting for the LRU lock,
                    # and a blocking acquire here would deadlock.
                    if not descriptor.atomic_lock.try_acquire():
                        self._queue.append(content)
                        continue
                    if descriptor.accessed:
                        # Second chance: clear the flag, move to the tail.
                        descriptor.accessed = False
                        self._queue.append(content)
                        descriptor.atomic_lock.release()
                        self.stats.eviction_second_chances += 1
                        continue
                    # Recycle: descriptor becomes unloaded-(clean|dirty).
                    descriptor.content = None
                    content.descriptor = None
                    descriptor.atomic_lock.release()
                    self.stats.evictions += 1
                    return content
                # Every candidate was locked or recently used; back off.
                yield self.env.timeout(1e-6)
        finally:
            self.lru_lock.release()

    def attach(self, descriptor: PageDescriptor, content: PageContent) -> None:
        """Link content to descriptor (making it *loaded*) and enqueue."""
        content.descriptor = descriptor
        descriptor.content = content
        self._queue.append(content)

    def release(self, content: PageContent) -> None:
        """Detach a content outside the CLOCK (file close): the buffer
        returns to the free budget."""
        if content.descriptor is not None:
            content.descriptor.content = None
            content.descriptor = None
        try:
            self._queue.remove(content)
        except ValueError:
            pass
        self._allocated -= 1
