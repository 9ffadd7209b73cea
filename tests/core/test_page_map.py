"""The per-file page map: page index -> PageDescriptor (paper §II-C's
radix tree, modelled as a dict — see repro.core.files)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core import NvFile, PageDescriptor
from repro.kernel import O_CREAT, O_RDWR
from repro.kernel.fd_table import LOCK_SH, LOCK_UN
from repro.sim import Environment

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
