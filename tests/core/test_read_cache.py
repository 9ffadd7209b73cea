"""Unit tests for the user-space read cache and its CLOCK eviction."""

from collections import deque

import pytest

from repro.core import NvcacheStats, PageDescriptor, ReadCache
from repro.sim import Environment


def make_cache(capacity=4, page_size=64):
    env = Environment()
    stats = NvcacheStats()
    return env, stats, ReadCache(env, capacity, page_size, stats)


def run(env, gen):
    return env.run_process(gen)


def test_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        ReadCache(env, 0, 64)


def test_allocate_up_to_capacity_without_eviction():
    env, stats, cache = make_cache(capacity=3)

    def body():
        contents = []
        for i in range(3):
            content = yield from cache.allocate_content()
            cache.attach(PageDescriptor(env, i), content)
            contents.append(content)
        return contents

    contents = run(env, body())
    assert len(contents) == 3
    assert stats.evictions == 0
    assert cache.loaded_pages() == 3


def test_eviction_recycles_oldest_unaccessed():
    env, stats, cache = make_cache(capacity=2)

    def body():
        d0, d1 = PageDescriptor(env, 0), PageDescriptor(env, 1)
        c0 = yield from cache.allocate_content()
        cache.attach(d0, c0)
        c1 = yield from cache.allocate_content()
        cache.attach(d1, c1)
        # Neither accessed: d0 is the oldest and gets recycled.
        c2 = yield from cache.allocate_content()
        return d0, d1, c0, c2

    d0, d1, c0, c2 = run(env, body())
    assert c2 is c0
    assert d0.content is None
    assert d0.state == "unloaded-clean"
    assert d1.content is not None
    assert stats.evictions == 1


def test_second_chance_for_accessed_page():
    env, stats, cache = make_cache(capacity=2)

    def body():
        d0, d1 = PageDescriptor(env, 0), PageDescriptor(env, 1)
        c0 = yield from cache.allocate_content()
        cache.attach(d0, c0)
        c1 = yield from cache.allocate_content()
        cache.attach(d1, c1)
        d0.accessed = True  # a read touched page 0
        c2 = yield from cache.allocate_content()
        return d0, d1, c1, c2

    d0, d1, c1, c2 = run(env, body())
    assert c2 is c1  # page 1 evicted instead
    assert d0.content is not None
    assert d0.accessed is False  # second chance consumed
    assert stats.eviction_second_chances == 1


def test_locked_page_skipped_by_eviction():
    env, _stats, cache = make_cache(capacity=2)

    def body():
        d0, d1 = PageDescriptor(env, 0), PageDescriptor(env, 1)
        c0 = yield from cache.allocate_content()
        cache.attach(d0, c0)
        c1 = yield from cache.allocate_content()
        cache.attach(d1, c1)
        yield d0.atomic_lock.acquire()  # someone is using page 0
        c2 = yield from cache.allocate_content()
        d0.atomic_lock.release()
        return d0, c1, c2

    d0, c1, c2 = run(env, body())
    assert c2 is c1
    assert d0.content is not None


def test_dirty_page_becomes_unloaded_dirty_on_eviction():
    """The paper's key trick: evicting a dirty page costs NO write syscall;
    the page just transitions to unloaded-dirty (Fig 2)."""
    env, _stats, cache = make_cache(capacity=1)

    def body():
        d0 = PageDescriptor(env, 0)
        d0.pending = deque([1, 2, 3])  # pending log entries touch this page
        c0 = yield from cache.allocate_content()
        cache.attach(d0, c0)
        c1 = yield from cache.allocate_content()  # evicts page 0
        return d0, c0, c1

    d0, c0, c1 = run(env, body())
    assert c1 is c0
    assert d0.state == "unloaded-dirty"
    assert d0.dirty_counter == 3  # untouched by eviction


def test_release_returns_budget():
    env, _stats, cache = make_cache(capacity=1)

    def body():
        d0 = PageDescriptor(env, 0)
        c0 = yield from cache.allocate_content()
        cache.attach(d0, c0)
        cache.release(c0)
        assert d0.content is None
        # Budget freed: allocation succeeds without eviction machinery.
        c1 = yield from cache.allocate_content()
        return c1

    assert run(env, body()) is not None


def test_page_state_names():
    env = Environment()
    descriptor = PageDescriptor(env, 9)
    assert descriptor.state == "unloaded-clean"
    descriptor.pending = deque([1])
    assert descriptor.state == "unloaded-dirty"
    descriptor.content = object()
    assert descriptor.state == "loaded"
