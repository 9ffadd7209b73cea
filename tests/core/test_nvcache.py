"""Behavioural tests for the NVCache facade (paper §II/§III semantics)."""

import pytest

from repro.kernel import (
    KernelError,
    O_APPEND,
    O_CREAT,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
)
from repro.kernel.errno import EBADF

from .conftest import SMALL_CONFIG, make_stack, run


def test_read_own_write_before_propagation(stack):
    env, _kernel, _ssd, _nvmm, nv = stack

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_RDWR)
        yield from nv.pwrite(fd, b"fresh data", 0)
        data = yield from nv.pread(fd, 10, 0)
        return data

    assert run(env, body()) == b"fresh data"


def test_write_is_durable_without_any_syscall(stack):
    """Synchronous durability: the write lives in the NVMM log before the
    kernel sees anything."""
    env, kernel, ssd, nvmm, nv = stack

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"durable!", 0)

    run(env, body())
    assert ssd.stats.writes == 0  # nothing reached the device yet
    # ... but the log already holds a committed durable entry.
    assert nv.log.is_committed(0)
    assert nv.log.read_data(0) == b"durable!"


def test_cleanup_propagates_to_kernel(stack):
    env, kernel, ssd, _nvmm, nv = stack

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        for i in range(10):
            yield from nv.pwrite(fd, bytes([65 + i]) * 4096, i * 4096)
        yield nv.cleanup.request_drain()
        # Kernel's own view must now match.
        kfd = yield from kernel.open("/f", O_RDONLY)
        data = yield from kernel.pread(kfd, 4096, 5 * 4096)
        return data

    assert run(env, body()) == bytes([70]) * 4096
    assert nv.stats.cleanup_entries == 10
    assert nv.log.used() == 0


def test_cursor_semantics(stack):
    env, _kernel, _ssd, _nvmm, nv = stack

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_RDWR)
        yield from nv.write(fd, b"abcdef")
        assert nv.ftell(fd) == 6
        yield from nv.lseek(fd, 2, SEEK_SET)
        data = yield from nv.read(fd, 2)
        assert data == b"cd"
        assert nv.ftell(fd) == 4
        pos = yield from nv.lseek(fd, -1, SEEK_END)
        assert pos == 5
        pos = yield from nv.lseek(fd, -2, SEEK_CUR)
        assert pos == 3
        return True

    assert run(env, body()) is True


def test_append_mode(stack):
    env, _kernel, _ssd, _nvmm, nv = stack

    def body():
        fd = yield from nv.open("/log", O_CREAT | O_WRONLY | O_APPEND)
        yield from nv.write(fd, b"one")
        yield from nv.lseek(fd, 0, SEEK_SET)
        yield from nv.write(fd, b"two")  # still appends
        st = yield from nv.fstat(fd)
        return st.st_size

    assert run(env, body()) == 6


def test_size_fresh_while_kernel_stale(stack):
    """Paper §II-C: size/cursor must come from NVCache because the kernel
    view lags while entries are in flight."""
    env, kernel, _ssd, _nvmm, nv = stack

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY | O_APPEND)
        yield from nv.write(fd, b"z" * 10000)
        nv_stat = yield from nv.fstat(fd)
        kernel_stat = yield from kernel.fstat(fd)
        return nv_stat.st_size, kernel_stat.st_size

    nv_size, kernel_size = run(env, body())
    assert nv_size == 10000
    assert kernel_size < 10000  # kernel hasn't seen the write yet


def test_stat_by_path_fresh(stack):
    env, _kernel, _ssd, _nvmm, nv = stack

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"q" * 777, 0)
        st = yield from nv.stat("/f")
        return st.st_size

    assert run(env, body()) == 777


def test_two_fds_same_file_share_size_not_cursor(stack):
    env, _kernel, _ssd, _nvmm, nv = stack

    def body():
        fd1 = yield from nv.open("/f", O_CREAT | O_RDWR)
        fd2 = yield from nv.open("/f", O_RDWR)
        yield from nv.write(fd1, b"hello")
        # fd2 cursor independent, size shared.
        assert nv.ftell(fd2) == 0
        data = yield from nv.read(fd2, 5)
        assert data == b"hello"
        st = yield from nv.fstat(fd2)
        return st.st_size

    assert run(env, body()) == 5


def test_read_only_open_bypasses_read_cache(stack):
    env, kernel, _ssd, _nvmm, nv = stack

    def body():
        # Create content via the kernel directly.
        kfd = yield from kernel.open("/ro", O_CREAT | O_WRONLY)
        yield from kernel.write(kfd, b"kernel content")
        yield from kernel.close(kfd)
        fd = yield from nv.open("/ro", O_RDONLY)
        data = yield from nv.pread(fd, 14, 0)
        return data

    assert run(env, body()) == b"kernel content"
    assert nv.stats.read_only_bypass == 1
    assert nv.stats.read_misses == 0  # read cache untouched
    handle_file = list(nv.tables.files.values())
    assert not handle_file or all(f.radix is None for f in handle_file)


def test_write_to_readonly_fd_fails(stack):
    env, kernel, _ssd, _nvmm, nv = stack

    def body():
        kfd = yield from kernel.open("/ro", O_CREAT | O_WRONLY)
        yield from kernel.close(kfd)
        fd = yield from nv.open("/ro", O_RDONLY)
        yield from nv.pwrite(fd, b"nope", 0)

    with pytest.raises(KernelError) as exc:
        run(env, body())
    assert exc.value.errno == EBADF


def test_read_from_wronly_fd_fails(stack):
    env, _kernel, _ssd, _nvmm, nv = stack

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"w", 0)
        yield from nv.pread(fd, 1, 0)

    with pytest.raises(KernelError) as exc:
        run(env, body())
    assert exc.value.errno == EBADF


def test_close_is_fast_and_defers_kernel_close(stack):
    """Close never waits for the disk: the kernel close (and the fd's
    NVMM path slot) is deferred until the cleanup thread retires the
    fd's entries."""
    env, kernel, _ssd, _nvmm, nv = stack

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"flushed-by-close" * 100, 0)
        start = env.now
        yield from nv.close(fd)
        close_cost = env.now - start
        deferred = set(nv.tables.deferred_close)
        # The cleanup thread is expedited by the deferred close.
        yield nv.cleanup.request_drain()
        yield env.timeout(0.01)
        kfd = yield from kernel.open("/f", O_RDONLY)
        data = yield from kernel.pread(kfd, 16, 0)
        return close_cost, deferred, data

    close_cost, deferred, data = run(env, body())
    assert close_cost < 1e-4  # no disk wait in close
    assert deferred  # kernel close really was deferred
    assert data == b"flushed-by-close"
    assert nv.log.used() == 0
    assert nv.tables.deferred_close == set()  # finalized after retirement


def test_close_releases_read_cache_pages(stack):
    env, _kernel, _ssd, _nvmm, nv = stack

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_RDWR)
        yield from nv.pwrite(fd, b"r" * 4096 * 4, 0)
        yield from nv.pread(fd, 4096 * 4, 0)
        loaded_before = nv.read_cache.loaded_pages()
        yield from nv.close(fd)
        yield nv.cleanup.request_drain()
        yield env.timeout(0.01)  # let the deferred close finalize
        return loaded_before, nv.read_cache.loaded_pages()

    before, after = run(env, body())
    assert before == 4
    assert after == 0


def test_reopen_before_retirement_stays_coherent(stack):
    """Close then immediately reopen: the new handle must share the old
    NvFile (pending entries included) so reads never see stale data."""
    env, _kernel, _ssd, _nvmm, nv = stack

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_RDWR)
        yield from nv.pwrite(fd, b"not-yet-propagated", 0)
        yield from nv.close(fd)
        fd2 = yield from nv.open("/f", O_RDWR)
        data = yield from nv.pread(fd2, 18, 0)
        return data

    assert run(env, body()) == b"not-yet-propagated"


def test_large_write_uses_entry_group(stack):
    env, _kernel, _ssd, _nvmm, nv = stack
    entry = SMALL_CONFIG.entry_data_size

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_RDWR)
        payload = bytes(range(256)) * ((3 * entry) // 256)
        yield from nv.pwrite(fd, payload, 123)
        data = yield from nv.pread(fd, len(payload), 123)
        return payload, data

    payload, data = run(env, body())
    assert data == payload
    assert nv.stats.group_writes == 1
    assert nv.stats.entries_created == 3


def test_unaligned_write_straddling_pages(stack):
    env, _kernel, _ssd, _nvmm, nv = stack

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_RDWR)
        yield from nv.pwrite(fd, b"base" * 2048, 0)  # 8 KiB
        yield from nv.pwrite(fd, b"OVERLAP", 4090)  # straddles pages 0/1
        data = yield from nv.pread(fd, 20, 4085)
        return data

    data = run(env, body())
    assert data == b"aseba" + b"OVERLAP" + b"asebaseb"


def test_hole_reads_as_zero(stack):
    env, _kernel, _ssd, _nvmm, nv = stack

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_RDWR)
        yield from nv.pwrite(fd, b"end", 9000)
        data = yield from nv.pread(fd, 10, 4500)
        return data

    assert run(env, body()) == b"\x00" * 10


def test_read_past_eof_clipped(stack):
    env, _kernel, _ssd, _nvmm, nv = stack

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_RDWR)
        yield from nv.pwrite(fd, b"12345", 0)
        data = yield from nv.pread(fd, 100, 3)
        empty = yield from nv.pread(fd, 10, 5)
        return data, empty

    data, empty = run(env, body())
    assert data == b"45"
    assert empty == b""


def test_open_trunc_resets_nvcache_size(stack):
    env, _kernel, _ssd, _nvmm, nv = stack

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"old" * 1000, 0)
        yield from nv.close(fd)
        fd = yield from nv.open("/f", O_WRONLY | O_TRUNC)
        st = yield from nv.fstat(fd)
        return st.st_size

    assert run(env, body()) == 0


def test_ftruncate_shrinks_and_zeroes(stack):
    env, _kernel, _ssd, _nvmm, nv = stack

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_RDWR)
        yield from nv.pwrite(fd, b"0123456789", 0)
        yield from nv.ftruncate(fd, 4)
        st = yield from nv.fstat(fd)
        assert st.st_size == 4
        data = yield from nv.pread(fd, 10, 0)
        return data

    assert run(env, body()) == b"0123"


def test_dirty_miss_reconstructs_page(stack):
    """Evict a dirty page, then read it back: the dirty-miss procedure
    must merge the kernel page with pending log entries (paper §II-C)."""
    config = SMALL_CONFIG.__class__(**{**SMALL_CONFIG.__dict__,
                                       "read_cache_pages": 2,
                                       "batch_min": 1000})  # cleanup stalls
    env, kernel, _ssd, _nvmm, nv = make_stack(config)

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_RDWR)
        # Seed page 0 via kernel so there is stale kernel data.
        yield from nv.pwrite(fd, b"A" * 4096, 0)
        yield nv.cleanup.request_drain()
        # Now write without propagation (batch_min high) and evict.
        yield from nv.pwrite(fd, b"B" * 100, 50)
        yield from nv.pread(fd, 1, 4096 * 1)  # load page 1
        yield from nv.pread(fd, 1, 4096 * 2)  # load page 2 -> evicts page 0
        # Page 0 should now be unloaded-dirty.
        descriptor = list(nv.tables.files.values())[0].radix.get(0)
        state_before = descriptor.state
        data = yield from nv.pread(fd, 200, 0)
        return state_before, data

    state_before, data = run(env, body())
    assert state_before == "unloaded-dirty"
    assert data[:50] == b"A" * 50
    assert data[50:150] == b"B" * 100
    assert data[150:200] == b"A" * 50
    assert nv.stats.dirty_misses >= 1
    assert nv.stats.dirty_miss_entries_applied >= 1


def test_write_updates_loaded_page_in_read_cache(stack):
    env, _kernel, _ssd, _nvmm, nv = stack

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_RDWR)
        yield from nv.pwrite(fd, b"X" * 4096, 0)
        yield from nv.pread(fd, 4096, 0)  # load
        misses_after_load = nv.stats.read_misses
        yield from nv.pwrite(fd, b"Y" * 10, 5)  # must update content in place
        data = yield from nv.pread(fd, 20, 0)
        return misses_after_load, data

    misses_after_load, data = run(env, body())
    assert data == b"X" * 5 + b"Y" * 10 + b"X" * 5
    assert nv.stats.read_misses == misses_after_load  # second read was a hit


def test_log_saturation_blocks_writer(stack):
    """Writes stall once the log fills faster than the SSD drains."""
    config = SMALL_CONFIG.__class__(**{**SMALL_CONFIG.__dict__,
                                       "log_entries": 16,
                                       "batch_min": 1, "batch_max": 4})
    env, _kernel, _ssd, _nvmm, nv = make_stack(config)

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        for i in range(200):
            yield from nv.pwrite(fd, b"s" * 4096, (i % 64) * 4096)
        return True

    assert run(env, body()) is True
    assert nv.stats.log_full_waits > 0
    nv.check_invariants()


def test_invariants_hold_after_mixed_workload(stack):
    env, _kernel, _ssd, _nvmm, nv = stack

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_RDWR)
        for i in range(50):
            yield from nv.pwrite(fd, bytes([i]) * 512, (i * 997) % 20000)
            if i % 5 == 0:
                yield from nv.pread(fd, 1024, (i * 313) % 20000)
        nv.check_invariants()
        yield nv.cleanup.request_drain()
        nv.check_invariants()
        return True

    assert run(env, body()) is True


def test_shutdown_stops_cleanup(stack):
    env, _kernel, _ssd, _nvmm, nv = stack

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"bye", 0)
        yield from nv.shutdown()
        return nv.cleanup.running

    assert run(env, body()) is False
    assert nv.log.used() == 0


def test_truncate_then_extend_no_stale_resurrection(stack):
    """Regression: a pending pre-truncate write must not resurrect stale
    bytes into the hole after a later extending write."""
    env, _kernel, _ssd, _nvmm, nv = stack

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_RDWR)
        yield from nv.pwrite(fd, b"A" * 8192, 0)
        yield from nv.ftruncate(fd, 100)
        yield from nv.pwrite(fd, b"B" * 10, 8000)
        middle = yield from nv.pread(fd, 200, 4000)
        tail = yield from nv.pread(fd, 10, 8000)
        head = yield from nv.pread(fd, 100, 0)
        return middle, tail, head

    middle, tail, head = run(env, body())
    assert middle == b"\x00" * 200
    assert tail == b"B" * 10
    assert head == b"A" * 100


def test_readonly_fd_sees_writes_after_radix_created(stack):
    """A file opened read-only (bypass) then opened for writing: reads
    through the ORIGINAL fd must see the new writes (the shared NvFile
    gains a radix tree and both fds use it)."""
    env, kernel, _ssd, _nvmm, nv = stack

    def body():
        kfd = yield from kernel.open("/ro", O_CREAT | O_WRONLY)
        yield from kernel.write(kfd, b"seed-value")
        yield from kernel.close(kfd)
        ro_fd = yield from nv.open("/ro", O_RDONLY)
        first = yield from nv.pread(ro_fd, 10, 0)
        assert first == b"seed-value"
        rw_fd = yield from nv.open("/ro", O_RDWR)
        yield from nv.pwrite(rw_fd, b"UPDATED!!!", 0)
        second = yield from nv.pread(ro_fd, 10, 0)
        return second

    assert run(env, body()) == b"UPDATED!!!"


def test_write_spanning_many_pages_consistent(stack):
    env, _kernel, _ssd, _nvmm, nv = stack

    def body():
        fd = yield from nv.open("/big", O_CREAT | O_RDWR)
        payload = bytes(range(256)) * 160  # 40 KiB = 10 pages
        yield from nv.pwrite(fd, payload, 2000)  # unaligned start
        data = yield from nv.pread(fd, len(payload), 2000)
        yield nv.cleanup.request_drain()
        after_drain = yield from nv.pread(fd, len(payload), 2000)
        return payload, data, after_drain

    payload, data, after_drain = run(env, body())
    assert data == payload
    assert after_drain == payload
