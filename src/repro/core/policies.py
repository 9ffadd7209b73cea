"""Pluggable cache eviction/promotion policies (Open-CAS style).

One policy object serves both caches that hold page-grained state:

- the DRAM read cache of the logging-mode design
  (:class:`~repro.core.read_cache.ReadCache`), where the policy replaces
  the built-in CLOCK when selected;
- the NVMM-resident page store of the paging-mode design
  (:class:`~repro.core.paging.PagingCache`), where a policy is always
  active (default LRU).

The interface is deliberately small and key-agnostic: callers feed it
opaque hashable keys (page descriptors, ``(file, page)`` tuples) and ask
two questions — *which resident entry should go* (:meth:`victims`) and
*should this missed key be promoted into the cache at all*
(:meth:`admit`). Everything a policy remembers is volatile bookkeeping;
policies can never change file contents, only hit ratios
(``tests/core/test_mode_equivalence.py`` pins that).

Shipped policies (à la Open-CAS eviction/promotion policies):

- ``lru``  — exact least-recently-used eviction, admit-always.
- ``alru`` — approximate/aging LRU: prefers victims that have not been
  touched for at least ``staleness`` accesses, falling back to plain
  LRU order when nothing is stale; admit-always.
- ``nhit`` — promotion-gated LRU: a missed key is only admitted into
  the cache after it has missed ``threshold`` times (a bounded map of
  touch counts approximates Open-CAS's nhit promotion policy); eviction
  is LRU.

See docs/POLICIES.md for semantics and selection knobs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterable, List, Optional

POLICY_NAMES = ("lru", "alru", "nhit")


class CachePolicy:
    """Base class: recency bookkeeping + admission decisions.

    Subclasses override :meth:`victims` (eviction preference order) and
    :meth:`admit` (miss-time promotion gate). The base tracks a global
    access sequence number per key, which is all LRU variants need.
    """

    name = "base"

    def __init__(self):
        self._clock = 0
        self._last_access: "OrderedDict[Hashable, int]" = OrderedDict()

    # -- bookkeeping callbacks ------------------------------------------

    def record_insert(self, key: Hashable) -> None:
        """``key`` became resident in the cache."""
        self._tick(key)

    def record_access(self, key: Hashable) -> None:
        """``key`` was hit (read or overwritten) while resident."""
        self._tick(key)

    def record_evict(self, key: Hashable) -> None:
        """``key`` left the cache."""
        self._last_access.pop(key, None)

    def _tick(self, key: Hashable) -> None:
        self._clock += 1
        self._last_access[key] = self._clock
        self._last_access.move_to_end(key)

    # -- decisions -------------------------------------------------------

    def admit(self, key: Hashable) -> bool:
        """Miss-time promotion gate: should ``key`` enter the cache?"""
        return True

    def victims(self, candidates: Iterable[Hashable]) -> List[Hashable]:
        """Candidates in eviction-preference order (best victim first).

        Deterministic: ties (keys the policy never saw) keep the
        caller's order and sort before any tracked key.
        """
        indexed = list(candidates)
        return sorted(indexed,
                      key=lambda k: self._last_access.get(k, -1))


class LruPolicy(CachePolicy):
    """Exact LRU eviction; every miss is admitted."""

    name = "lru"


class AlruPolicy(CachePolicy):
    """Approximate (aging) LRU, after Open-CAS's ALRU cleaning policy:
    an entry only becomes an *eligible* victim once it has aged for
    ``staleness`` global accesses without a touch; while any stale entry
    exists, recently-touched entries get a second chance. With nothing
    stale the policy degrades to plain LRU so eviction can always make
    progress."""

    name = "alru"

    def __init__(self, staleness: int = 64):
        super().__init__()
        if staleness < 1:
            raise ValueError("alru staleness must be >= 1")
        self.staleness = staleness

    def victims(self, candidates: Iterable[Hashable]) -> List[Hashable]:
        indexed = list(candidates)
        stale = [k for k in indexed
                 if self._clock - self._last_access.get(k, -1)
                 >= self.staleness]
        fresh = [k for k in indexed
                 if self._clock - self._last_access.get(k, -1)
                 < self.staleness]
        order = lambda k: self._last_access.get(k, -1)  # noqa: E731
        return sorted(stale, key=order) + sorted(fresh, key=order)


class NhitPolicy(CachePolicy):
    """Promotion-gated LRU, after Open-CAS's nhit promotion policy: a
    missed key is admitted only on its ``threshold``-th miss, so one-shot
    scans never flush the resident working set. Touch counts live in a
    bounded LRU map of ``window`` keys (the oldest record is forgotten
    when the map is full)."""

    name = "nhit"

    def __init__(self, threshold: int = 2, window: int = 4096):
        super().__init__()
        if threshold < 1:
            raise ValueError("nhit threshold must be >= 1")
        if window < 1:
            raise ValueError("nhit window must be >= 1")
        self.threshold = threshold
        self.window = window
        self._touches: "OrderedDict[Hashable, int]" = OrderedDict()

    def admit(self, key: Hashable) -> bool:
        count = self._touches.pop(key, 0) + 1
        self._touches[key] = count
        while len(self._touches) > self.window:
            self._touches.popitem(last=False)
        if count >= self.threshold:
            del self._touches[key]
            return True
        return False

    def record_insert(self, key: Hashable) -> None:
        self._touches.pop(key, None)
        super().record_insert(key)


def make_policy(name: str) -> Optional[CachePolicy]:
    """Build a policy by configuration name, with its constructor
    defaults.

    ``"clock"`` and ``""`` return ``None`` — the read cache's built-in
    CLOCK path (the paper's eviction; unchanged default behaviour). The
    paging cache maps those to :class:`LruPolicy` itself, since it has
    no CLOCK.
    """
    if name in ("", "clock"):
        return None
    if name == "lru":
        return LruPolicy()
    if name == "alru":
        return AlruPolicy()
    if name == "nhit":
        return NhitPolicy()
    raise ValueError(
        f"unknown cache policy {name!r}; choose from "
        f"{('clock',) + POLICY_NAMES}")
