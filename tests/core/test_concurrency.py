"""Multi-threading semantics (paper §II-D): POSIX read/write atomicity,
parallel independent writes, writer/cleanup/reader interplay."""

import pytest

from repro.block import SsdDevice
from repro.core import CACHE_MODES, Nvcache, NvmmLog
from repro.faults import CrashExplorer, CrashWorkload, run_workload
from repro.fs import Ext4
from repro.harness.systems import build_stack
from repro.kernel import Kernel, O_CREAT, O_RDWR, O_WRONLY
from repro.nvmm import NvmmDevice, NvmmTiming
from repro.sim import Environment
from repro.units import MIB, US

from .conftest import SMALL_CONFIG, make_stack
from .test_mode_equivalence import MODE_CONFIGS


def test_concurrent_writes_to_same_page_serialize(stack=None):
    env, _kernel, _ssd, _nvmm, nv = make_stack()
    results = []

    def writer(fd, payload):
        yield from nv.pwrite(fd, payload, 0)
        results.append(payload[:1])

    def main():
        fd = yield from nv.open("/f", O_CREAT | O_RDWR)
        env.spawn(writer(fd, b"A" * 4096))
        env.spawn(writer(fd, b"B" * 4096))
        yield env.timeout(1.0)
        data = yield from nv.pread(fd, 4096, 0)
        return data

    data = env.run_process(main())
    # Atomicity: the page is entirely one writer's data, never interleaved.
    assert data in (b"A" * 4096, b"B" * 4096)
    assert len(results) == 2


def test_reader_never_sees_partial_multi_page_write():
    env, _kernel, _ssd, _nvmm, nv = make_stack()
    observations = []

    def writer(fd):
        for round_number in range(10):
            payload = bytes([65 + round_number]) * (3 * 4096)
            yield from nv.pwrite(fd, payload, 0)

    def reader(fd):
        for _ in range(40):
            data = yield from nv.pread(fd, 3 * 4096, 0)
            if data:
                observations.append(data)
            yield env.timeout(1e-6)

    def main():
        fd = yield from nv.open("/f", O_CREAT | O_RDWR)
        yield from nv.pwrite(fd, b"@" * (3 * 4096), 0)
        writer_proc = env.spawn(writer(fd))
        reader_proc = env.spawn(reader(fd))
        yield writer_proc.join()
        yield reader_proc.join()
        return True

    assert env.run_process(main()) is True
    for data in observations:
        # Every observation is a single generation, never a mix.
        assert len(set(data)) == 1, "reader saw a torn multi-page write"


def test_independent_pages_write_in_parallel():
    """Writes to different pages must overlap in time (per-page locking,
    not a single file lock)."""
    env, _kernel, _ssd, _nvmm, nv = make_stack()
    spans = {}

    def writer(fd, name, page):
        start = env.now
        for i in range(20):
            yield from nv.pwrite(fd, name.encode() * 512, page * 4096)
        spans[name] = (start, env.now)

    def main():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        a = env.spawn(writer(fd, "a", 0))
        b = env.spawn(writer(fd, "b", 100))
        yield a.join()
        yield b.join()
        return True

    assert env.run_process(main()) is True
    (a_start, a_end), (b_start, b_end) = spans["a"], spans["b"]
    assert a_start < b_end and b_start < a_end  # overlapping execution


def test_dirty_counter_consistent_under_concurrency():
    env, _kernel, _ssd, _nvmm, nv = make_stack()

    def writer(fd, offset_base):
        for i in range(30):
            yield from nv.pwrite(fd, b"w" * 512, offset_base + (i % 8) * 512)

    def main():
        fd = yield from nv.open("/f", O_CREAT | O_RDWR)
        procs = [env.spawn(writer(fd, base)) for base in (0, 8192, 16384)]
        for proc in procs:
            yield proc.join()
        nv.check_invariants()
        yield nv.cleanup.request_drain()
        nv.check_invariants()
        return True

    assert env.run_process(main()) is True


def test_reader_during_cleanup_sees_consistent_data():
    """The cleanup-lock protocol: a dirty miss racing the cleanup thread
    must never lose a pending entry (paper §II-D)."""
    config = SMALL_CONFIG.__class__(**{**SMALL_CONFIG.__dict__,
                                       "read_cache_pages": 2,
                                       "batch_min": 1, "batch_max": 2})
    env, _kernel, _ssd, _nvmm, nv = make_stack(config)
    errors = []

    def writer(fd):
        for generation in range(1, 21):
            yield from nv.pwrite(fd, bytes([generation]) * 4096, 0)
            yield env.timeout(1e-5)

    def reader(fd):
        last = 0
        for _ in range(60):
            # Thrash the cache so page 0 keeps getting evicted.
            yield from nv.pread(fd, 1, 4096)
            yield from nv.pread(fd, 1, 8192)
            data = yield from nv.pread(fd, 4096, 0)
            if data:
                generations = set(data)
                if len(generations) != 1:
                    errors.append("torn page")
                value = data[0]
                if value < last:
                    errors.append(f"went back in time: {value} < {last}")
                last = value
            yield env.timeout(2e-5)

    def main():
        fd = yield from nv.open("/f", O_CREAT | O_RDWR)
        yield from nv.pwrite(fd, b"\x00" * 3 * 4096, 0)
        writer_proc = env.spawn(writer(fd))
        reader_proc = env.spawn(reader(fd))
        yield writer_proc.join()
        yield reader_proc.join()
        yield nv.cleanup.request_drain()
        nv.check_invariants()
        return True

    assert env.run_process(main()) is True
    assert errors == []


def test_many_writers_saturating_log_all_complete():
    config = SMALL_CONFIG.__class__(**{**SMALL_CONFIG.__dict__,
                                       "log_entries": 8,
                                       "batch_min": 1, "batch_max": 4})
    env, _kernel, _ssd, _nvmm, nv = make_stack(config)
    done = []

    def writer(fd, lane):
        for i in range(25):
            yield from nv.pwrite(fd, b"x" * 4096, (lane * 25 + i) * 4096)
        done.append(lane)

    def main():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        procs = [env.spawn(writer(fd, lane)) for lane in range(4)]
        for proc in procs:
            yield proc.join()
        yield nv.cleanup.request_drain()
        return True

    assert env.run_process(main()) is True
    assert sorted(done) == [0, 1, 2, 3]
    assert nv.stats.log_full_waits > 0
    assert nv.log.used() == 0


def test_cleanup_never_blocks_writer_on_loaded_page():
    """Paper: 'the cleanup thread never blocks a writer'. Writers take
    atomic locks; cleanup takes cleanup locks — disjoint."""
    env, _kernel, _ssd, _nvmm, nv = make_stack()
    write_latencies = []

    def main():
        fd = yield from nv.open("/f", O_CREAT | O_RDWR)
        yield from nv.pwrite(fd, b"seed" * 1024, 0)
        yield from nv.pread(fd, 4096, 0)  # page loaded
        for i in range(100):
            start = env.now
            yield from nv.pwrite(fd, b"w" * 4096, 0)
            write_latencies.append(env.now - start)
        yield nv.cleanup.request_drain()
        return True

    assert env.run_process(main()) is True
    # No write should ever wait for an SSD-speed cleanup operation
    # (~50 us+); they all complete at NVMM speed (~10 us).
    assert max(write_latencies) < 3e-5


def _overtaking_writes(run):
    """Writer C holds page 0; A (8 KiB at 0) waits on it while B (4 KiB
    at 4096) takes page 1 and commits, so A writes page 1 after B.
    Returns the fd and page 1 as read before any drain."""
    nv = run.nvcache
    fd = yield from nv.open("/f", O_CREAT | O_RDWR)
    writers = [run.env.spawn(nv.pwrite(fd, fill * size, offset))
               for fill, size, offset in ((b"c", 4096, 0), (b"a", 8192, 0),
                                          (b"b", 4096, 4096))]
    for writer in writers:
        yield writer.join()
    run.nvcache.check_invariants()
    page = yield from nv.pread(fd, 4096, 4096)
    return fd, page


@pytest.mark.parametrize("mode", sorted(CACHE_MODES))
def test_multi_page_write_is_logged_in_its_page_lock_order(mode):
    """A write spanning pages reserves its log entries under its page
    locks: a reader, the drain and crash recovery then all agree on the
    writer that touched a page last, even when a later single-page
    write overtook it while it waited for its first page."""
    config = MODE_CONFIGS[mode]

    # Power cut before any drain: recovery replays the log alone.
    run = build_stack("nvcache+ssd", config=config)
    run.nvcache.cleanup.stop()
    _fd, before = run.env.run_process(_overtaking_writes(run))
    env2, kernel2, _nvmm2, _report = CrashExplorer._crash_and_recover(
        run.kernel, run.devices.values(), run.nvcache.nvmm, config)
    recovered = CrashExplorer._read_state(env2, kernel2, ["/f"])["/f"]

    # Same writes, then a drain and a reopen: the backend's copy.
    results = []

    def drain_and_reopen(run):
        fd, _page = yield from _overtaking_writes(run)
        yield run.nvcache.cleanup.request_drain()
        yield from run.nvcache.close(fd)
        fd = yield from run.nvcache.open("/f", O_RDWR)
        page = yield from run.nvcache.pread(fd, 4096, 4096)
        results.append(page)

    workload = CrashWorkload(drain_and_reopen, config)
    run_workload(workload.build(), workload)
    (drained,) = results

    assert before in (b"a" * 4096, b"b" * 4096)
    assert drained == before
    assert recovered[4096:8192] == before


def test_an_fd_reused_during_its_predecessors_close_keeps_its_tables():
    """The kernel frees a closing fd before the path-table psync, so an
    open racing that psync can be handed the same number. Its tables
    entry must survive the predecessor's retirement, or the drain cannot
    find the new file's pages and their pending index goes stale."""
    env = Environment()
    kernel = Kernel(env)
    kernel.mount("/", Ext4(env, SsdDevice(env, size=64 * MIB)))
    # A psync slower than the two syscalls that open and fstat the file.
    nvmm = NvmmDevice(env, size=NvmmLog.required_size(SMALL_CONFIG),
                      timing=NvmmTiming(flush_base_latency=10 * US))
    nv = Nvcache(env, kernel, nvmm, SMALL_CONFIG)

    def main():
        old = yield from nv.open("/a", O_CREAT | O_RDWR)
        other = yield from nv.open("/b", O_CREAT | O_RDWR)
        yield from nv.close(other)
        reopened = {}

        def reopen():
            reopened["fd"] = yield from nv.open("/b", O_RDWR)

        closing = env.spawn(nv.close(old))
        opening = env.spawn(reopen())
        yield closing.join()
        yield opening.join()
        fd = reopened["fd"]
        assert fd == old  # the race this test is about
        yield from nv.pwrite(fd, b"b" * 4096, 0)
        yield nv.cleanup.request_drain()
        nv.check_invariants()
        return fd

    fd = env.run_process(main())
    handle = nv.tables.get(fd)
    assert nv.tables.fd_files[fd] is handle.file
    assert handle.file.pending_entries == 0
