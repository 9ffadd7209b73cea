"""Unit tests for the kernel page cache: coherence, combining, writeback,
eviction — the properties NVCache's design leans on."""

import pytest

from repro.block import SsdDevice
from repro.fs import Ext4
from repro.kernel import PageCache, PAGE_SIZE
from repro.units import MIB

from .conftest import run


@pytest.fixture
def setup(env):
    ssd = SsdDevice(env, size=256 * MIB)
    fs = Ext4(env, ssd)
    cache = PageCache(env)
    inode = fs.create("/f")
    return ssd, fs, cache, inode


def test_read_after_write_coherence(env, setup):
    _ssd, fs, cache, inode = setup

    def body():
        yield from cache.write(fs, inode, 10, b"hello")
        data = yield from cache.read(fs, inode, 10, 5)
        return data

    assert run(env, body()) == b"hello"


def test_write_does_not_touch_device(env, setup):
    ssd, fs, cache, inode = setup

    def body():
        yield from cache.write(fs, inode, 0, b"x" * PAGE_SIZE)

    run(env, body())
    assert ssd.stats.writes == 0
    assert cache.dirty_page_count(fs, inode) == 1


def test_fsync_writes_dirty_pages_and_commits(env, setup):
    ssd, fs, cache, inode = setup

    def body():
        yield from cache.write(fs, inode, 0, b"a" * PAGE_SIZE)
        yield from cache.write(fs, inode, PAGE_SIZE, b"b" * PAGE_SIZE)
        yield from cache.fsync(fs, inode)

    run(env, body())
    # 2 data pages + 1 journal commit record
    assert ssd.stats.writes == 3
    assert ssd.stats.flushes == 1
    assert cache.dirty_page_count(fs, inode) == 0


def test_write_combining_one_device_write_per_page(env, setup):
    """The effect behind the paper's batching gains (Fig 6): many small
    writes to the same page produce ONE device write at fsync."""
    ssd, fs, cache, inode = setup

    def body():
        for i in range(32):
            yield from cache.write(fs, inode, i * 128, b"w" * 128)
        yield from cache.fsync(fs, inode)

    run(env, body())
    # 32 x 128B = one 4 KiB page -> 1 data write + 1 journal record
    assert ssd.stats.writes == 2
    assert cache.stats.dirty_combines == 31


def test_fsync_only_flushes_that_inode(env, setup):
    ssd, fs, cache, inode = setup
    other = fs.create("/g")

    def body():
        yield from cache.write(fs, inode, 0, b"a" * PAGE_SIZE)
        yield from cache.write(fs, other, 0, b"b" * PAGE_SIZE)
        yield from cache.fsync(fs, inode)

    run(env, body())
    assert cache.dirty_page_count(fs, inode) == 0
    assert cache.dirty_page_count(fs, other) == 1


def test_partial_page_write_preserves_rest(env, setup):
    _ssd, fs, cache, inode = setup

    def body():
        yield from cache.write(fs, inode, 0, b"A" * PAGE_SIZE)
        yield from cache.fsync(fs, inode)
        cache.crash()  # drop the cache: force a re-read from the device
        yield from cache.write(fs, inode, 100, b"B" * 10)
        data = yield from cache.read(fs, inode, 0, PAGE_SIZE)
        return data

    data = run(env, body())
    assert data[:100] == b"A" * 100
    assert data[100:110] == b"B" * 10
    assert data[110:] == b"A" * (PAGE_SIZE - 110)


def test_read_clipped_at_size(env, setup):
    _ssd, fs, cache, inode = setup

    def body():
        yield from cache.write(fs, inode, 0, b"12345")
        data = yield from cache.read(fs, inode, 0, PAGE_SIZE)
        return data

    assert run(env, body()) == b"12345"


def test_read_past_eof_empty(env, setup):
    _ssd, fs, cache, inode = setup

    def body():
        yield from cache.write(fs, inode, 0, b"12345")
        data = yield from cache.read(fs, inode, 100, 10)
        return data

    assert run(env, body()) == b""


def test_hit_miss_stats(env, setup):
    _ssd, fs, cache, inode = setup

    def body():
        yield from cache.write(fs, inode, 0, b"z" * PAGE_SIZE)
        yield from cache.read(fs, inode, 0, 10)  # hit
        yield from cache.fsync(fs, inode)
        cache.crash()
        yield from cache.read(fs, inode, 0, 10)  # miss

    run(env, body())
    assert cache.stats.hits >= 1
    assert cache.stats.misses >= 1


def test_eviction_under_pressure(env):
    ssd = SsdDevice(env, size=256 * MIB)
    fs = Ext4(env, ssd)
    cache = PageCache(env, capacity_pages=8)
    inode = fs.create("/big")

    def body():
        for i in range(32):
            yield from cache.write(fs, inode, i * PAGE_SIZE, b"e" * PAGE_SIZE)
        # Everything is dirty, so eviction had to write back old pages.
        data = yield from cache.read(fs, inode, 0, PAGE_SIZE)
        return data

    data = run(env, body())
    assert data == b"e" * PAGE_SIZE
    assert cache.cached_page_count() <= 9
    assert cache.stats.evictions >= 24


def test_writeback_pass_cleans_without_barrier(env, setup):
    ssd, fs, cache, inode = setup

    def body():
        yield from cache.write(fs, inode, 0, b"w" * PAGE_SIZE)
        yield from cache.writeback_pass()

    run(env, body())
    assert cache.dirty_page_count() == 0
    assert ssd.stats.writes == 1
    assert ssd.stats.flushes == 0  # no barrier: plain writeback


def test_writeback_daemon_cleans_aged_pages(env, setup):
    _ssd, fs, cache, inode = setup
    cache.writeback_interval = 1.0
    cache.start_writeback_daemon()

    def body():
        yield from cache.write(fs, inode, 0, b"d" * PAGE_SIZE)
        yield env.timeout(3.0)
        return cache.dirty_page_count()

    assert run(env, body()) == 0


def test_crash_drops_everything(env, setup):
    _ssd, fs, cache, inode = setup

    def body():
        yield from cache.write(fs, inode, 0, b"gone" * 1024)

    run(env, body())
    cache.crash()
    assert cache.cached_page_count() == 0
    assert cache.dirty_page_count() == 0


def test_fsync_writes_pages_in_ascending_order(env, setup):
    ssd, fs, cache, inode = setup
    order = []
    original = fs.write_page

    def spy(inode_arg, index, data):
        order.append(index)
        return original(inode_arg, index, data)

    fs.write_page = spy

    def body():
        for index in (5, 1, 3, 2, 4):
            yield from cache.write(fs, inode, index * PAGE_SIZE, b"o" * PAGE_SIZE)
        yield from cache.fsync(fs, inode)

    run(env, body())
    assert order == sorted(order)


# -- write-back races: identity of the payload is the page's version ---------

def _durable_page(ssd, fs, inode, index=0):
    return ssd.durable_snapshot()[fs._blocks(inode)[index]]


def test_page_rewritten_during_its_own_writeback_stays_dirty(env, setup):
    """The flusher takes no inode lock: a write that lands while the
    page's old contents are on their way to the device must leave the
    page dirty, or the next fsync acknowledges bytes it never wrote."""
    ssd, fs, cache, inode = setup
    old, new = b"A" * PAGE_SIZE, b"B" * PAGE_SIZE

    def body():
        yield from cache.write(fs, inode, 0, old)
        flusher = env.spawn(cache.writeback_pass())
        yield env.timeout(1e-6)  # the device write of A is in service
        yield from cache.write(fs, inode, 0, new)
        yield flusher
        dirty = cache.dirty_page_count(fs, inode)
        yield from cache.fsync(fs, inode)
        return dirty

    assert run(env, body()) == 1
    assert cache.dirty_page_count() == 0
    assert _durable_page(ssd, fs, inode) == new


def test_page_truncated_and_rewritten_during_writeback_stays_dirty(env, setup):
    """Same race through ``truncate``, which replaces the page itself."""
    ssd, fs, cache, inode = setup

    def body():
        yield from cache.write(fs, inode, 0, b"A" * PAGE_SIZE)
        flusher = env.spawn(cache.writeback_pass())
        yield env.timeout(1e-6)
        cache.truncate(fs, inode, 0)
        fs.truncate(inode, 0)
        yield from cache.write(fs, inode, 0, b"B" * 100)
        yield flusher
        dirty = cache.dirty_page_count(fs, inode)
        yield from cache.fsync(fs, inode)
        return dirty

    assert run(env, body()) == 1
    assert _durable_page(ssd, fs, inode)[:100] == b"B" * 100


def test_victim_rewritten_during_eviction_writeback_is_not_lost(env):
    """All pages dirty: eviction writes the oldest one back, and a write
    that hits it meanwhile must not be dropped with the page."""
    fs = Ext4(env, SsdDevice(env, size=256 * MIB))
    cache = PageCache(env, capacity_pages=1)
    victim, other = fs.create("/victim"), fs.create("/other")

    def evictor():
        yield from cache.write(fs, other, 0, b"o" * PAGE_SIZE)

    def body():
        yield from cache.write(fs, victim, 0, b"A" * PAGE_SIZE)
        process = env.spawn(evictor())
        yield env.timeout(5e-6)  # the victim's write-back is in service
        assert cache.stats.writeback_pages == 0
        yield from cache.write(fs, victim, 0, b"B" * 10)
        yield process
        data = yield from cache.read(fs, victim, 0, PAGE_SIZE)
        return data

    assert run(env, body()) == b"B" * 10 + b"A" * (PAGE_SIZE - 10)


def test_two_evictors_may_pick_the_same_victim(env):
    """Writers on different inodes evict concurrently; the one whose
    victim is already gone moves on instead of deleting it twice."""
    fs = Ext4(env, SsdDevice(env, size=256 * MIB))
    cache = PageCache(env, capacity_pages=2)
    files = [fs.create(f"/f{i}") for i in range(3)]

    def writer(inode, pages):
        for i in range(pages):
            yield from cache.write(fs, inode, i * PAGE_SIZE, b"x" * PAGE_SIZE)

    def body():
        yield from writer(files[0], 1)
        writers = [env.spawn(writer(inode, 4)) for inode in files[1:]]
        for process in writers:
            yield process
        for inode in files:
            yield from cache.fsync(fs, inode)

    run(env, body())
    assert cache.cached_page_count() <= 2 and cache.dirty_page_count() == 0


# -- one immutable bytes object per whole page (DESIGN.md §6) ----------------

def _cached(cache, fs, inode, index=0):
    return cache._pages[id(fs), inode.number, index]


def test_clean_page_is_the_block_object_the_device_holds(env, setup):
    """The memory guard: no second copy of a clean page. After fsync the
    cached page is the object handed to the device; after a cold read it
    is the object the device handed out, and so is what the reader gets."""
    ssd, fs, cache, inode = setup
    payload = b"p" * PAGE_SIZE

    def body():
        yield from cache.write(fs, inode, 0, payload)
        yield from cache.write(fs, inode, PAGE_SIZE, b"q" * 100)
        yield from cache.fsync(fs, inode)
        synced = [_cached(cache, fs, inode, index).data for index in (0, 1)]
        cache.crash()
        data = yield from cache.read(fs, inode, 0, PAGE_SIZE)
        return synced, data

    synced, data = run(env, body())
    assert synced[0] is payload is _durable_page(ssd, fs, inode, 0)
    assert type(synced[1]) is bytes
    assert synced[1] is _durable_page(ssd, fs, inode, 1)
    assert data is payload is _cached(cache, fs, inode).data


def test_whole_page_writes_of_one_object_store_one_object(env, setup):
    ssd, fs, cache, inode = setup
    payload = bytes(PAGE_SIZE)

    def body():
        for index in range(16):
            yield from cache.write(fs, inode, index * PAGE_SIZE, payload)
        yield from cache.fsync(fs, inode)

    run(env, body())
    blocks = [ssd.durable_snapshot()[block]
              for block in fs._blocks(inode).values()]
    assert len(blocks) == 16 and all(block is payload for block in blocks)


@pytest.mark.parametrize("mutable", [bytearray, memoryview],
                         ids=["bytearray", "memoryview"])
def test_mutable_buffer_handed_to_write_is_copied(env, setup, mutable):
    ssd, fs, cache, inode = setup
    backing = bytearray(b"k" * (PAGE_SIZE + 100))

    def body():
        yield from cache.write(fs, inode, 0, mutable(backing))
        backing[:] = b"!" * len(backing)  # the caller reuses its buffer
        data = yield from cache.read(fs, inode, 0, len(backing))
        yield from cache.fsync(fs, inode)
        return data

    assert run(env, body()) == b"k" * (PAGE_SIZE + 100)
    assert _durable_page(ssd, fs, inode) == b"k" * PAGE_SIZE


@pytest.mark.parametrize("mutable", [bytearray, memoryview],
                         ids=["bytearray", "memoryview"])
def test_mutable_page_handed_to_ext4_write_page_is_copied(env, setup, mutable):
    _ssd, fs, _cache, inode = setup
    backing = bytearray(b"k" * PAGE_SIZE)
    inode.size = PAGE_SIZE

    def body():
        yield from fs.write_page(inode, 0, mutable(backing))
        backing[:] = b"!" * PAGE_SIZE
        data = yield from fs.read_page(inode, 0)
        return data

    data = run(env, body())
    assert type(data) is bytes and data == b"k" * PAGE_SIZE


def test_one_byte_write_leaves_the_device_block_untouched_until_fsync(env, setup):
    ssd, fs, cache, inode = setup
    payload = b"p" * PAGE_SIZE

    def body():
        yield from cache.write(fs, inode, 0, payload)
        yield from cache.fsync(fs, inode)
        yield from cache.write(fs, inode, 7, b"!")  # page shared with device
        block = yield from ssd.read(fs._blocks(inode)[0] * PAGE_SIZE, PAGE_SIZE)
        data = yield from cache.read(fs, inode, 0, PAGE_SIZE)
        return block, data

    block, data = run(env, body())
    assert block is payload and payload == b"p" * PAGE_SIZE
    assert data == b"p" * 7 + b"!" + b"p" * (PAGE_SIZE - 8)
    run(env, cache.fsync(fs, inode))
    assert _durable_page(ssd, fs, inode) == data


def test_truncate_zeroes_the_boundary_in_a_new_object(env, setup):
    ssd, fs, cache, inode = setup
    payload = b"p" * PAGE_SIZE

    def body():
        yield from cache.write(fs, inode, 0, payload)
        yield from cache.fsync(fs, inode)  # the page is now the device's block
        cache.truncate(fs, inode, 100)
        fs.truncate(inode, 100)
        inode.size = PAGE_SIZE  # grow again: the cut must read as zeros
        data = yield from cache.read(fs, inode, 0, PAGE_SIZE)
        return data

    assert run(env, body()) == b"p" * 100 + bytes(PAGE_SIZE - 100)
    assert payload == b"p" * PAGE_SIZE
    assert _durable_page(ssd, fs, inode) is payload
