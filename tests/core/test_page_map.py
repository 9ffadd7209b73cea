"""The per-file page map: page index -> PageDescriptor (paper §II-C's
radix tree, modelled as a dict — see repro.core.files)."""

import tracemalloc

from hypothesis import given
from hypothesis import strategies as st

from repro.core import NvFile, PageDescriptor
from repro.harness import Scale, build_stack, nvcache_config
from repro.kernel import O_CREAT, O_RDWR
from repro.kernel.fd_table import LOCK_SH, LOCK_UN
from repro.sim import Environment
from repro.units import GIB, KIB
from repro.workloads import FioJob, run_fio

from .conftest import run


def writable_file():
    """An NvFile as a first write-mode open leaves it: an empty map."""
    return NvFile(key=(0, 1), path="/f", size=0, env=Environment(), pages={})


def test_absent_index_reads_none():
    nv_file = writable_file()
    assert nv_file.pages.get(0) is None
    assert nv_file.pages.get(10**9) is None
    assert len(nv_file.pages) == 0


def test_get_or_create_inserts_a_descriptor():
    nv_file = writable_file()
    descriptor = nv_file.descriptor_or_create(5)
    assert isinstance(descriptor, PageDescriptor) and descriptor.index == 5
    assert nv_file.pages.get(5) is descriptor
    assert len(nv_file.pages) == 1


def test_get_or_create_is_idempotent():
    nv_file = writable_file()
    first = nv_file.descriptor_or_create(7)
    assert nv_file.descriptor_or_create(7) is first
    assert len(nv_file.pages) == 1


def test_indices_beyond_2_40_work():
    nv_file = writable_file()
    small = nv_file.descriptor_or_create(3)
    large = nv_file.descriptor_or_create(2**40 + 17)
    assert nv_file.pages.get(3) is small
    assert nv_file.pages.get(2**40 + 17) is large
    assert large.index == 2**40 + 17


def test_walks_visit_pages_in_ascending_order(stack):
    """The map keeps insertion order; the walks that release cached pages
    (flock's drop of clean pages, the last close) sort it, so they visit
    pages in ascending index order as the tree's walk did."""
    env, _kernel, _ssd, _nvmm, nv = stack
    released = []
    release = nv.read_cache.release

    def recording_release(content):
        released.append(content.descriptor.index)
        release(content)

    nv.read_cache.release = recording_release
    order = (5, 1, 3)  # insertion order, deliberately unsorted

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_RDWR)
        for page in order:
            yield from nv.pwrite(fd, bytes([page]) * 4096, page * 4096)
        for page in order:
            yield from nv.pread(fd, 1, page * 4096)  # load into the cache
        yield nv.cleanup.request_drain()
        assert list(nv.tables.get(fd).file.pages) == list(order)
        yield from nv.flock(fd, LOCK_SH)  # drops every clean page
        drop_order = list(released)
        yield from nv.flock(fd, LOCK_UN)
        released.clear()
        for page in (3, 5, 1):
            yield from nv.pread(fd, 1, page * 4096)  # reload
        yield from nv.close(fd)  # last close releases the rest
        return drop_order, list(released)

    assert run(env, body()) == ([1, 3, 5], [1, 3, 5])


def test_a_drained_page_keeps_no_pending_container():
    """A page has a pending-entry index of its own only while it has
    pending entries: once a smoke-size fio randwrite job is drained,
    every descriptor of the still-open file shares the empty tuple."""
    scale = Scale(8192)
    config = nvcache_config(scale, log_bytes=scale.of(32 * GIB),
                            batch_min=62, batch_max=625)
    stack = build_stack("nvcache+ssd", scale, config=config)
    nv = stack.nvcache
    region = scale.of(20 * GIB)
    # An fd held open across the job keeps the file's page map alive.
    fd = stack.env.run_process(nv.open("/fio.dat", O_CREAT | O_RDWR))
    job = FioJob(rw="randwrite", block_size=4 * KIB, size=region,
                 file_size=region, fsync=1, direct=True, seed=42)
    run_fio(stack.env, stack.libc, job, "/fio.dat", settle=stack.settle)

    def drain():
        yield nv.cleanup.request_drain()

    stack.env.run_process(drain())
    pages = nv.tables.get(fd).file.pages
    assert len(pages) == region // (4 * KIB)
    assert all(descriptor.pending == () and descriptor.dirty_counter == 0
               for descriptor in pages.values())
    nv.check_invariants()


def test_a_fresh_descriptor_costs_under_400_bytes():
    """Per-page state is two locks, the flags and the content pointer:
    10,000 fresh descriptors, map entries included, stay under 400 B
    each (about 270 B on CPython 3.11; an empty deque per page made it
    about 1,040 B)."""
    nv_file = writable_file()
    count = 10_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for page in range(count):
            nv_file.descriptor_or_create(page)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(nv_file.pages) == count
    assert grown / count < 400, f"{grown / count:.0f} B per descriptor"


@given(st.sets(st.integers(min_value=0, max_value=2**40), max_size=200))
def test_property_roundtrip(keys):
    nv_file = writable_file()
    for key in keys:
        nv_file.descriptor_or_create(key)
    for key in keys:
        assert nv_file.pages.get(key).index == key
    assert set(nv_file.pages) == keys


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=100))
def test_property_missing_keys_absent(keys):
    nv_file = writable_file()
    present = set(keys[::2])
    for key in present:
        nv_file.descriptor_or_create(key)
    for key in keys:
        if key not in present:
            assert nv_file.pages.get(key) is None
