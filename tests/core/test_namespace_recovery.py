"""Recovery ordering for namespace operations (unlink/truncate/rename).

These cover the extension documented in DESIGN.md: namespace ops are
logged so that crash recovery replays them in order with data writes —
without this, a crash could resurrect a deleted rollback journal or
un-truncate a file.
"""

from dataclasses import replace

import pytest

from repro.core import CACHE_MODES
from repro.kernel import O_CREAT, O_RDONLY, O_RDWR, O_TRUNC, O_WRONLY, KernelError
from repro.kernel.errno import ENOENT

from .test_recovery import CFG, crash_and_recover, fresh_stack, read_file


def test_unlink_replayed_after_writes():
    """Write then unlink, crash before propagation: the file must NOT
    exist after recovery (the journal-resurrection hazard)."""
    env, kernel, ssd, nvmm, nv = fresh_stack(start_cleanup=False)

    def body():
        fd = yield from nv.open("/journal", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"rollback data", 0)
        yield from nv.close(fd)
        yield from nv.unlink("/journal")

    env.run_process(body())
    env2, kernel2, _nvmm2, report = crash_and_recover(env, kernel, ssd, nvmm)
    assert report.namespace_ops_replayed == 1

    def check():
        try:
            yield from kernel2.open("/journal", O_RDONLY)
        except KernelError as exc:
            return exc.errno
        return None

    assert env2.run_process(check()) == ENOENT


def test_unlink_then_recreate_same_path():
    """The SQLite journal pattern: journal written, deleted, recreated
    with new content, crash. Recovery must end with ONLY the new
    content."""
    env, kernel, ssd, nvmm, nv = fresh_stack(start_cleanup=False)

    def body():
        fd = yield from nv.open("/j", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"OLD-TXN-1-GARBAGE", 0)
        yield from nv.close(fd)
        yield from nv.unlink("/j")
        fd = yield from nv.open("/j", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"NEW", 0)

    env.run_process(body())
    env2, kernel2, _nvmm2, _report = crash_and_recover(env, kernel, ssd, nvmm)
    data = read_file(env2, kernel2, "/j", 64)
    assert data == b"NEW"
    assert b"GARBAGE" not in data


def test_truncate_replayed_in_order():
    # Cleanup runs (ftruncate drains pending entries first), then stops
    # so the truncate op + the post-truncate write stay in the log.
    env, kernel, ssd, nvmm, nv = fresh_stack()

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"0123456789", 0)
        yield from nv.ftruncate(fd, 4)
        nv.cleanup.stop()
        yield from nv.pwrite(fd, b"AB", 0)

    env.run_process(body())
    assert nv.log.used() >= 2  # the op entry + the new write
    env2, kernel2, _nvmm2, report = crash_and_recover(env, kernel, ssd, nvmm)
    assert report.namespace_ops_replayed == 1
    assert read_file(env2, kernel2, "/f", 64) == b"AB23"


def test_open_trunc_replayed():
    env, kernel, ssd, nvmm, nv = fresh_stack()

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"long old content", 0)
        yield from nv.close(fd)
        fd = yield from nv.open("/f", O_WRONLY | O_TRUNC)
        nv.cleanup.stop()
        yield from nv.pwrite(fd, b"new", 0)

    env.run_process(body())
    env2, kernel2, _nvmm2, _report = crash_and_recover(env, kernel, ssd, nvmm)
    assert read_file(env2, kernel2, "/f", 64) == b"new"


def test_rename_replayed():
    env, kernel, ssd, nvmm, nv = fresh_stack(start_cleanup=False)

    def body():
        fd = yield from nv.open("/manifest.tmp", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"table list v2", 0)
        yield from nv.close(fd)
        yield from nv.rename("/manifest.tmp", "/MANIFEST")

    env.run_process(body())
    env2, kernel2, _nvmm2, report = crash_and_recover(env, kernel, ssd, nvmm)
    assert report.namespace_ops_replayed == 1
    assert read_file(env2, kernel2, "/MANIFEST", 64) == b"table list v2"

    def old_gone():
        try:
            yield from kernel2.open("/manifest.tmp", O_RDONLY)
        except KernelError as exc:
            return exc.errno
        return None

    assert env2.run_process(old_gone()) == ENOENT


def _absent(env, kernel, path):
    def body():
        try:
            yield from kernel.stat(path)
        except KernelError as exc:
            return exc.errno == ENOENT
        return False

    return env.run_process(body())


@pytest.mark.parametrize("mode", sorted(CACHE_MODES))
def test_writes_through_an_open_fd_follow_its_rename(mode):
    """Write through an open fd, unlink the target name, rename the
    still-open file onto it, then ftruncate and pwrite through the same
    fd and crash with the later entries pending. Every acknowledged byte
    must come back under the new name and no ghost under the old one:
    the fd's durable path binding, which recovery replays its entries
    by, must follow the rename, and no entry older than the new binding
    may stay pending (resolved from the new name it would meet the
    unlink and be dropped)."""
    config = replace(CFG, cache_mode=mode, paging_slots=64)
    env, kernel, ssd, nvmm, nv = fresh_stack(config)

    def body():
        fd = yield from nv.open("/b", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"stale target", 0)
        yield from nv.close(fd)
        fd = yield from nv.open("/a", O_CREAT | O_RDWR)
        yield from nv.pwrite(fd, b"acked-before-rename", 0)
        yield from nv.unlink("/b")
        yield from nv.rename("/a", "/b")
        nv.cleanup.stop()
        yield from nv.ftruncate(fd, 64)
        return (yield from nv.pwrite(fd, b"after", 32))

    assert env.run_process(body()) == 5
    env2, kernel2, _nvmm2, _report = crash_and_recover(env, kernel, ssd, nvmm,
                                               config=config)
    assert read_file(env2, kernel2, "/b", 128) == (
        b"acked-before-rename" + bytes(13) + b"after" + bytes(27))
    assert _absent(env2, kernel2, "/a")


@pytest.mark.parametrize("mode", sorted(CACHE_MODES))
def test_log_rotation_with_the_new_log_open(mode):
    """Rotate a log while the new one is still open: rename /log away,
    rename /log.new onto /log, keep writing through the new log's fd,
    crash. The write made before the rotation belongs to /log, not to
    /log.old, which the rebound name would reach by following the first
    rename had that write stayed pending."""
    config = replace(CFG, cache_mode=mode, paging_slots=64)
    env, kernel, ssd, nvmm, nv = fresh_stack(config)

    def body():
        fd = yield from nv.open("/log", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"old log", 0)
        yield from nv.close(fd)
        fd = yield from nv.open("/log.new", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"rotated ", 0)
        yield from nv.rename("/log", "/log.old")
        yield from nv.rename("/log.new", "/log")
        nv.cleanup.stop()
        return (yield from nv.pwrite(fd, b"log", 8))

    assert env.run_process(body()) == 3
    env2, kernel2, _nvmm2, _report = crash_and_recover(env, kernel, ssd, nvmm,
                                               config=config)
    assert read_file(env2, kernel2, "/log", 64) == b"rotated log"
    assert read_file(env2, kernel2, "/log.old", 64) == b"old log"
    assert _absent(env2, kernel2, "/log.new")


def test_deferred_close_keeps_fd_binding_for_recovery():
    """Close with pending entries, crash: the path binding must still be
    in NVMM so the entries are replayed."""
    env, kernel, ssd, nvmm, nv = fresh_stack(start_cleanup=False)

    def body():
        fd = yield from nv.open("/pending", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"survives close+crash", 0)
        yield from nv.close(fd)  # deferred: cleanup is off

    env.run_process(body())
    assert nv.tables.deferred_close
    env2, kernel2, _nvmm2, report = crash_and_recover(env, kernel, ssd, nvmm)
    assert report.entries_applied == 1
    assert read_file(env2, kernel2, "/pending", 64) == b"survives close+crash"


def test_retired_fd_not_replayed():
    """After the cleanup thread retires and finalizes a closed fd, its
    path slot is cleared: recovery replays nothing for it."""
    env, kernel, ssd, nvmm, nv = fresh_stack()

    def body():
        fd = yield from nv.open("/done", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"already on disk", 0)
        yield from nv.close(fd)
        yield nv.cleanup.request_drain()
        yield env.timeout(0.05)  # let finalization run

    env.run_process(body())
    assert nv.log.paths.bound() == {}
    env2, kernel2, _nvmm2, report = crash_and_recover(env, kernel, ssd, nvmm)
    assert report.entries_applied == 0
    assert read_file(env2, kernel2, "/done", 64) == b"already on disk"
