"""The drain hands the kernel the writer's bytes (DESIGN.md §6).

A single-entry ``pwrite`` whose payload is the caller's immutable
``bytes`` covering one aligned page leaves a volatile reference to that
object in the log, by seq, until the entry's clear. The cleanup thread
still loads the entry from NVMM and passes the kept object on only when
the two are byte-equal, so the page cache and the SSD hold the writer's
page instead of a copy of it, and the media stays the source of truth.
Every test runs on the ``nvcache+ssd`` stack; the fio pin also runs on
the bypass ``ssd`` stack, which shares the writer's page already.
"""

import pytest

from repro.core import NvcacheConfig
from repro.core.log import HEADER_SIZE
from repro.harness import Scale, build_stack, nvcache_config
from repro.kernel import O_CREAT, O_RDWR
from repro.units import GIB, KIB
from repro.workloads import FioJob, run_fio

PAGE = 4 * KIB
#: The thread drains only when asked: nothing is pending-but-small for
#: long enough to trip the idle flush, and the ring never half fills.
HELD = NvcacheConfig(log_entries=64, entry_data_size=PAGE, read_cache_pages=16,
                     batch_min=64, batch_max=64, fd_max=16, path_max=64,
                     cleanup_idle_flush=10.0)
#: A four-slot ring that drains eagerly, so writes wrap it many times.
RING = NvcacheConfig(log_entries=4, entry_data_size=PAGE, read_cache_pages=16,
                     batch_min=1, batch_max=4, fd_max=16, path_max=64,
                     cleanup_idle_flush=0.001)


def nvcache_ssd(config):
    return build_stack("nvcache+ssd", config=config)


def _inode(stack, path):
    filesystem, rel = stack.kernel.vfs.resolve(path)
    return filesystem, filesystem.lookup(rel)


def cached_page(stack, path, index):
    filesystem, inode = _inode(stack, path)
    return stack.kernel.page_cache._pages[id(filesystem), inode.number, index].data


def durable_block(stack, path, index):
    filesystem, inode = _inode(stack, path)
    return stack.devices["ssd"]._durable[filesystem._blocks(inode)[index]]


def drain(nv):
    yield nv.cleanup.request_drain()


def test_whole_page_write_reaches_the_page_cache_and_ssd_as_one_object():
    stack = nvcache_ssd(HELD)
    nv = stack.nvcache
    payload = bytes(range(256)) * (PAGE // 256)

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_RDWR)
        seq = nv.log.head
        yield from nv.pwrite(fd, payload, 2 * PAGE)
        assert nv.log._kept == {seq: payload}
        assert nv.log._kept[seq] is payload
        nv.check_invariants()
        yield from drain(nv)
        yield from stack.kernel.syncfs(fd)

    stack.env.run_process(body())
    assert nv.log._kept == {}
    assert cached_page(stack, "/f", 2) is payload
    assert durable_block(stack, "/f", 2) is payload


def test_the_media_wins_over_the_kept_object():
    """A payload changed in NVMM between commit and drain reaches the
    kernel as the media's bytes, never as the kept object."""
    stack = nvcache_ssd(HELD)
    nv = stack.nvcache
    payload = b"w" * PAGE
    media = b"m" * PAGE

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_RDWR)
        seq = nv.log.head
        yield from nv.pwrite(fd, payload, 0)
        assert nv.log._kept[seq] is payload
        nv.nvmm.store(nv.log._slot_addr(seq) + HEADER_SIZE, media)
        with pytest.raises(AssertionError, match="differs from the media"):
            nv.check_invariants()
        yield from drain(nv)

    stack.env.run_process(body())
    page = cached_page(stack, "/f", 0)
    assert page == media and page is not payload
    assert durable_block(stack, "/f", 0) == media


def test_nothing_is_kept_for_any_other_entry_shape():
    stack = nvcache_ssd(HELD)
    nv = stack.nvcache
    log = nv.log

    def body():
        fd = yield from nv.open("/a", O_CREAT | O_RDWR)
        shapes = [
            (b"p" * 100, 0),                  # partial page
            (b"u" * PAGE, 100),               # one entry straddling two pages
            (bytearray(b"b" * PAGE), PAGE),   # not immutable
            (b"g" * (2 * PAGE), 4 * PAGE),    # two entries: a group
        ]
        for data, offset in shapes:
            head = log.head
            yield from nv.pwrite(fd, data, offset)
            assert log.head > head
            assert log._kept == {}, (type(data), len(data), offset)
        yield from nv.pwrite(fd, b"k" * PAGE, 8 * PAGE)  # the one kept shape
        assert len(log._kept) == 1
        yield from drain(nv)
        assert log._kept == {}
        head = log.head
        yield from nv.ftruncate(fd, PAGE)
        yield from nv.rename("/a", "/b")
        yield from nv.unlink("/b")
        yield from nv.open("/b", O_CREAT | O_RDWR)  # logs OP_CREATE
        assert log.head - head == 4
        assert log._kept == {}

    stack.env.run_process(body())


def test_a_reused_slot_never_serves_the_previous_seqs_object():
    """After the ring wraps, a slot holding equal bytes under a newer
    seq (here from a ``bytearray``, which is not kept) must hand the
    kernel its own bytes, and every clear leaves no reference behind."""
    stack = nvcache_ssd(RING)
    nv = stack.nvcache
    log = nv.log
    first = b"x" * PAGE

    def body():
        fd = yield from nv.open("/r", O_CREAT | O_RDWR)
        seq = log.head
        yield from nv.pwrite(fd, first, 0)
        yield from drain(nv)
        assert log._kept == {}
        for i in range(1, RING.log_entries):
            yield from nv.pwrite(fd, bytes([i]) * PAGE, i * PAGE)
        assert log.head % RING.log_entries == seq % RING.log_entries
        yield from nv.pwrite(fd, bytearray(first), 10 * PAGE)
        nv.check_invariants()
        yield from drain(nv)
        assert log._kept == {}
        reused = cached_page(stack, "/r", 10)
        assert reused == first and reused is not first
        for i in range(5 * RING.log_entries):
            yield from nv.pwrite(fd, bytes([i % 251]) * PAGE, (i % 7) * PAGE)
            nv.check_invariants()
        yield from drain(nv)

    stack.env.run_process(body())
    assert log.head > 5 * RING.log_entries and log._kept == {}


@pytest.mark.parametrize("system", ["ssd", "nvcache+ssd"])
def test_a_drained_fio_job_leaves_two_page_objects(system):
    """The structural pin behind the host-RSS claim: a smoke-size fio
    randwrite job lays the file out with one zero block and writes one
    pattern block, so once drained the kernel page cache and the file's
    SSD blocks hold those two objects and no copies — on the bypass
    stack (whose O_DIRECT writes skip the page cache) and through
    NVCache (which strips O_DIRECT)."""
    scale = Scale(8192)
    config = (nvcache_config(scale, log_bytes=scale.of(32 * GIB),
                             batch_min=62, batch_max=625)
              if system.startswith("nvcache") else None)
    stack = build_stack(system, scale, config=config)
    region = scale.of(20 * GIB)
    job = FioJob(rw="randwrite", block_size=PAGE, size=region,
                 file_size=region, fsync=1, direct=True, seed=42)
    run_fio(stack.env, stack.libc, job, "/fio.dat", settle=stack.settle)
    if stack.nvcache is not None:
        stack.env.run_process(drain(stack.nvcache))
        assert stack.nvcache.log.used() == 0
    pages = [page.data for page in stack.kernel.page_cache._pages.values()]
    assert len(pages) == (region // PAGE if stack.nvcache is not None else 0)
    blocks = [durable_block(stack, "/fio.dat", index)
              for index in range(region // PAGE)]
    assert len({id(data) for data in pages + blocks}) <= 2
