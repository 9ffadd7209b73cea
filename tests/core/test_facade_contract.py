"""The facade contract: one table of POSIX-surface behaviours that every
cache mode must show, whatever it persists in NVMM.

Each row is a function taking a :class:`Ctx` (a stack factory bound to
one ``CACHE_MODES`` name); ``test_facade_contract`` runs every row on
every mode, so a new mode inherits the whole table by adding its
``CACHE_MODES`` row. The rows exercise exactly what
:class:`~repro.core.CacheFacade` and :class:`~repro.core.DrainThread`
own; ``test_no_method_is_duplicated_across_modes`` guards against that
shared code being forked back into the subclasses, and
``test_one_spelling_of_a_timed_step`` against the hand-rolled
charge-then-timeout pair, flat trace events and forward-only libc
generators coming back.
"""

import ast
import inspect
import itertools
import pathlib
import textwrap
from dataclasses import dataclass, replace

import pytest

import repro
from repro.block import SsdDevice
from repro.core import CACHE_MODES, DrainThread, NvcacheConfig, cache_mode_row
from repro.fs import Ext4
from repro.kernel import Kernel, KernelError
from repro.kernel.errno import EBADF, EINVAL, ENAMETOOLONG, ENOENT
from repro.kernel.fd_table import (
    LOCK_EX,
    O_APPEND,
    O_CREAT,
    O_RDONLY,
    O_RDWR,
    O_WRONLY,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
)
from repro.nvmm import NvmmDevice
from repro.sim import Environment
from repro.units import MIB

#: Valid for every mode: a small log, a small page table, fast idle flush.
BASE_CONFIG = NvcacheConfig(
    log_entries=256, read_cache_pages=32, batch_min=4, batch_max=32,
    fd_max=64, cleanup_idle_flush=0.01, paging_slots=64,
    paging_batch_pages=8, paging_idle_flush=0.01)

#: Interval of the poll loop the close-headroom waiter replaced; seeing
#: it requested by a blocked close would mean the busy-wait is back.
OLD_POLL_INTERVAL = 5e-4


@dataclass
class Ctx:
    cache_mode: str
    monkeypatch: pytest.MonkeyPatch
    ssd: SsdDevice = None  # the backend of the last stack made

    def make(self, start_cleanup=True, **overrides):
        """(env, kernel, cache) of this mode over a fresh ext4-on-SSD."""
        config = replace(BASE_CONFIG, cache_mode=self.cache_mode, **overrides)
        cache_cls, required_size, _recover = cache_mode_row(self.cache_mode)
        env = Environment()
        kernel = Kernel(env)
        self.ssd = SsdDevice(env, size=64 * MIB)
        kernel.mount("/", Ext4(env, self.ssd))
        nvmm = NvmmDevice(env, size=required_size(config))
        cache = cache_cls(env, kernel, nvmm, config,
                          start_cleanup=start_cleanup)
        return env, kernel, cache


def raises(errno, generator):
    """Drive ``generator`` inside a running process; it must fail with
    ``KernelError(errno)``."""
    with pytest.raises(KernelError) as caught:
        yield from generator
    assert caught.value.errno == errno


def has_pending(cache):
    return (any(cache.tables.pending_by_fd.values())
            or any(f.pending_entries for f in cache.tables.files.values()))


# -- rows -------------------------------------------------------------------

def ebadf_on_unmanaged_fd(ctx):
    """Every fd-taking call rejects an fd the cache did not open — even
    one the kernel knows."""
    env, kernel, cache = ctx.make()

    def body():
        kfd = yield from kernel.open("/k", O_CREAT | O_RDWR)
        for call in (cache.close(kfd), cache.read(kfd, 1),
                     cache.write(kfd, b"x"), cache.pread(kfd, 1, 0),
                     cache.pwrite(kfd, b"x", 0), cache.lseek(kfd, 0),
                     cache.fstat(kfd), cache.ftruncate(kfd, 0),
                     cache.fsync(kfd), cache.fdatasync(kfd),
                     cache.syncfs(kfd), cache.flock(kfd, LOCK_EX)):
            yield from raises(EBADF, call)
        with pytest.raises(KernelError) as caught:
            cache.ftell(kfd)
        assert caught.value.errno == EBADF

    env.run_process(body())


def io_argument_checks(ctx):
    """pwrite/pread check access mode before offsets, and both before
    touching any state."""
    env, _kernel, cache = ctx.make()

    def body():
        wfd = yield from cache.open("/f", O_CREAT | O_WRONLY)
        yield from cache.pwrite(wfd, b"data", 0)
        rfd = yield from cache.open("/f", O_RDONLY)
        yield from raises(EBADF, cache.pwrite(rfd, b"no", 0))
        yield from raises(EBADF, cache.pread(wfd, 1, 0))
        yield from raises(EBADF, cache.pread(wfd, 1, -1))  # mode first
        yield from raises(EINVAL, cache.pwrite(wfd, b"no", -1))
        yield from raises(EINVAL, cache.pread(rfd, 1, -1))
        yield from raises(EINVAL, cache.pread(rfd, -1, 0))
        assert (yield from cache.pwrite(wfd, b"", 0)) == 0
        assert (yield from cache.pread(rfd, 10, 4)) == b""  # at EOF
        assert (yield from cache.pread(rfd, 10, 0)) == b"data"

    env.run_process(body())
    assert cache.stats.writes == 1


def lseek_whence_and_bounds(ctx):
    env, _kernel, cache = ctx.make()

    def body():
        fd = yield from cache.open("/f", O_CREAT | O_RDWR)
        yield from cache.write(fd, b"abcdef")
        assert cache.ftell(fd) == 6
        assert (yield from cache.lseek(fd, 2, SEEK_SET)) == 2
        assert (yield from cache.read(fd, 2)) == b"cd"
        assert (yield from cache.lseek(fd, -1, SEEK_END)) == 5
        assert (yield from cache.lseek(fd, -2, SEEK_CUR)) == 3
        yield from raises(EINVAL, cache.lseek(fd, 0, 7))          # whence
        yield from raises(EINVAL, cache.lseek(fd, -1, SEEK_SET))  # negative
        yield from raises(EINVAL, cache.lseek(fd, -4, SEEK_CUR))
        yield from raises(EINVAL, cache.lseek(fd, -7, SEEK_END))
        assert cache.ftell(fd) == 3  # failed seeks leave the cursor alone
        assert (yield from cache.lseek(fd, 10, SEEK_END)) == 16  # past EOF ok

    env.run_process(body())


def append_cursor(ctx):
    """O_APPEND writes land at the cache's EOF wherever the cursor is,
    and leave the cursor at the new EOF."""
    env, _kernel, cache = ctx.make()

    def body():
        fd = yield from cache.open("/log", O_CREAT | O_WRONLY | O_APPEND)
        yield from cache.write(fd, b"one")
        yield from cache.lseek(fd, 0, SEEK_SET)
        yield from cache.write(fd, b"two")  # still appends
        assert cache.ftell(fd) == 6
        other = yield from cache.open("/log", O_RDWR | O_APPEND)
        assert cache.ftell(other) == 6  # opens at EOF
        yield from cache.write(other, b"three")
        assert (yield from cache.pread(other, 11, 0)) == b"onetwothree"
        return (yield from cache.fstat(fd)).st_size

    assert env.run_process(body()) == 11


def size_override_while_pending(ctx):
    """stat/fstat report the cache's size while the kernel's lags behind
    writes that are durable but not yet propagated (paper §II-C)."""
    env, kernel, cache = ctx.make(start_cleanup=False)

    def body():
        fd = yield from cache.open("/f", O_CREAT | O_WRONLY)
        yield from cache.pwrite(fd, b"z" * 10000, 0)
        by_fd = yield from cache.fstat(fd)
        by_path = yield from cache.stat("/f")
        stale = yield from kernel.fstat(fd)
        return by_fd, by_path, stale

    by_fd, by_path, stale = env.run_process(body())
    assert by_fd.st_size == by_path.st_size == 10000
    assert stale.st_size < 10000  # nothing drained: the kernel's view is old
    assert (by_fd.st_dev, by_fd.st_ino) == (stale.st_dev, stale.st_ino)


def sync_family_is_free(ctx):
    """fsync/fdatasync/syncfs/sync cost no simulated time and no device
    I/O — the write was durable at return — and are counted."""
    env, _kernel, cache = ctx.make(start_cleanup=False)

    def body():
        fd = yield from cache.open("/f", O_CREAT | O_WRONLY)
        yield from cache.pwrite(fd, b"x" * 4096, 0)
        start = env.now
        for call in (cache.fsync(fd), cache.fdatasync(fd),
                     cache.syncfs(fd), cache.sync()):
            assert (yield from call) == 0
        return env.now - start

    assert env.run_process(body()) == 0.0
    assert cache.stats.fsyncs_ignored == 4
    assert has_pending(cache)  # and nothing was flushed to earn that
    assert ctx.ssd.stats.writes == 0


def close_defers_kernel_close(ctx):
    """close never waits for the disk: with pending work naming the fd,
    the kernel close is deferred until the drain thread retires it."""
    env, kernel, cache = ctx.make()

    def body():
        fd = yield from cache.open("/f", O_CREAT | O_WRONLY)
        yield from cache.pwrite(fd, b"flushed-by-close" * 100, 0)
        start = env.now
        yield from cache.close(fd)
        cost = env.now - start
        deferred = set(cache.tables.deferred_close)
        yield from raises(EBADF, cache.fsync(fd))  # gone for the app ...
        still_open = kernel.fds.lookup(fd) is not None  # ... not the kernel
        yield from cache.drain()
        yield env.timeout(0.01)  # let the deferred close finalize
        kfd = yield from kernel.open("/f", O_RDONLY)
        data = yield from kernel.pread(kfd, 16, 0)
        return fd, cost, deferred, still_open, data

    fd, cost, deferred, still_open, data = env.run_process(body())
    assert cost < 1e-4
    assert deferred == {fd} and still_open
    assert data == b"flushed-by-close"
    assert cache.tables.deferred_close == set()
    assert fd not in cache.tables.fd_files and not has_pending(cache)


def idle_close_is_immediate(ctx):
    env, kernel, cache = ctx.make()

    def body():
        fd = yield from cache.open("/f", O_CREAT | O_RDWR)
        yield from cache.close(fd)
        return fd

    fd = env.run_process(body())
    assert cache.tables.deferred_close == set()
    assert kernel.fds.lookup(fd) is None


def close_headroom_under_threshold(ctx):
    _env, _kernel, cache = ctx.make(fd_max=20)
    assert cache.cleanup.request_close_headroom(threshold=1).fired


def saturated_close_parks_unpolled(ctx):
    """Over ``fd_max * 3 // 4`` deferred closes, the next close parks on a
    drain-thread-fired waitable: no timer polls while it is blocked."""
    env, _kernel, cache = ctx.make(start_cleanup=False, fd_max=20,
                                   batch_max=8)
    threshold = 20 * 3 // 4

    state = {"blocked": False, "delays": []}
    original_timeout = Environment.timeout

    def spying_timeout(self, delay, value=None):
        if state["blocked"]:
            state["delays"].append(delay)
        return original_timeout(self, delay, value)

    ctx.monkeypatch.setattr(Environment, "timeout", spying_timeout)
    outcome = {}

    def body():
        # With the drain thread stopped every close of a written file
        # defers; fill the backlog exactly to the threshold (these
        # closes must not block).
        fds = []
        for i in range(threshold + 1):
            fd = yield from cache.open(f"/churn{i}", O_CREAT | O_WRONLY)
            yield from cache.pwrite(fd, bytes([i % 251]) * 64, 0)
            fds.append(fd)
        for fd in fds[:-1]:
            yield from cache.close(fd)
        assert len(cache.tables.deferred_close) == threshold

        def final_close():
            yield from cache.close(fds[-1])
            outcome["backlog_at_resume"] = len(cache.tables.deferred_close)

        state["blocked"] = True
        closer = env.spawn(final_close(), name="saturated-close")
        yield env.timeout(1e-6)
        # Over the threshold and nothing draining: parked on the waiter.
        assert closer.alive
        assert len(cache.tables.deferred_close) == threshold + 1
        cache.cleanup.start()
        yield closer
        state["blocked"] = False

    env.run_process(body())
    # Resumed only because the backlog really dropped ...
    assert outcome["backlog_at_resume"] <= threshold
    # ... and without the 0.5 ms polls the old implementation burnt.
    assert OLD_POLL_INTERVAL not in state["delays"]


def churn_drains_through_saturation(ctx):
    """Sustained churn past the valve makes progress, never overshoots
    it by more than the closing fd, and finalizes every descriptor."""
    env, _kernel, cache = ctx.make(fd_max=20, batch_max=8)
    threshold = 20 * 3 // 4

    def body():
        peak = 0
        for i in range(threshold * 3):
            fd = yield from cache.open(f"/churn{i % 8}", O_CREAT | O_WRONLY)
            yield from cache.pwrite(fd, bytes([i % 251]) * 64, 0)
            yield from cache.close(fd)
            peak = max(peak, len(cache.tables.deferred_close))
        yield from cache.drain()
        yield env.timeout(0.01)
        return peak

    peak = env.run_process(body())
    assert threshold <= peak <= threshold + 1
    assert cache.tables.deferred_close == set()
    assert not has_pending(cache)


def restart_leaves_one_drain_thread(ctx):
    """``stop()`` + ``start()`` never leaves two drain threads alive (two
    could retire the same batch): inside one tick the thread, still
    suspended on that tick, carries on; once the tick has elapsed it has
    exited and a fresh one replaces it."""
    spawned = []
    spawn = Environment.spawn

    def recording_spawn(env, generator, name="process"):
        process = spawn(env, generator, name)
        spawned.append(process)
        return process

    ctx.monkeypatch.setattr(Environment, "spawn", recording_spawn)
    env, _kernel, cache = ctx.make()
    thread = cache.cleanup

    def live():
        return [process for process in spawned
                if process.name == thread.process_name and process.alive]

    def body():
        fd = yield from cache.open("/f", O_CREAT | O_RDWR)
        yield from cache.pwrite(fd, b"x" * 64, 0)
        yield from cache.drain()
        thread.stop()
        thread.start()  # inside the tick the thread sleeps on
        yield env.timeout(0.01)
        assert len(live()) == 1
        thread.stop()
        yield env.timeout(0.01)  # the tick elapses: the thread exits
        assert live() == []
        thread.start()
        yield env.timeout(0.01)
        assert len(live()) == 1
        yield from cache.pwrite(fd, b"y" * 64, 0)
        yield from cache.drain()  # and the restarted thread drains

    env.run_process(body())
    assert not has_pending(cache)


def open_rejects_overlong_path(ctx):
    """A path the NVMM path table cannot hold fails ``open`` with
    ENAMETOOLONG before the kernel creates the file: no fd leaks and the
    cache's tables are untouched."""
    env, kernel, cache = ctx.make()
    path_max = cache.config.path_max
    tables = cache.tables

    def snapshot():
        return (dict(tables.files), dict(tables.opened),
                dict(tables.fd_files), dict(tables.pending_by_fd),
                set(tables.deferred_close))

    def body():
        before = snapshot()
        for path in ("/" + "a" * 300, "/" + "b" * (path_max - 1)):
            yield from raises(ENAMETOOLONG, cache.open(path, O_CREAT | O_RDWR))
            yield from raises(ENOENT, kernel.stat(path))
        assert snapshot() == before
        fd = yield from cache.open("/" + "c" * (path_max - 2), O_CREAT | O_RDWR)
        assert fd == 3  # the lowest free fd: nothing leaked
        yield from cache.pwrite(fd, b"fits", 0)
        assert (yield from cache.pread(fd, 4, 0)) == b"fits"

    env.run_process(body())


ROWS = (
    ebadf_on_unmanaged_fd,
    open_rejects_overlong_path,
    io_argument_checks,
    lseek_whence_and_bounds,
    append_cursor,
    size_override_while_pending,
    sync_family_is_free,
    close_defers_kernel_close,
    idle_close_is_immediate,
    close_headroom_under_threshold,
    saturated_close_parks_unpolled,
    churn_drains_through_saturation,
    restart_leaves_one_drain_thread,
)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.__name__)
@pytest.mark.parametrize("cache_mode", CACHE_MODES)
def test_facade_contract(cache_mode, row, monkeypatch):
    row(Ctx(cache_mode, monkeypatch))


# -- drift guard ------------------------------------------------------------

def _own_methods(cls):
    """name -> AST dump (docstring stripped) of each function ``cls``
    itself defines."""
    out = {}
    for name, member in vars(cls).items():
        function = getattr(member, "__func__", member)
        if not inspect.isfunction(function):
            continue
        node = ast.parse(textwrap.dedent(inspect.getsource(function))).body[0]
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            node.body = node.body[1:] or [ast.Pass()]
        node.decorator_list = []
        out[name] = ast.dump(node)
    return out


def test_no_method_is_duplicated_across_modes():
    """A method two modes (or two drain threads) define identically
    belongs on CacheFacade / DrainThread, not in both subclasses."""
    caches = {cache_mode_row(mode)[0] for mode in CACHE_MODES}
    threads = set(DrainThread.__subclasses__())
    assert len(caches) >= 3 and len(threads) >= 2
    duplicated = []
    for family in (caches, threads):
        ordered = sorted(family, key=lambda cls: cls.__name__)
        for left, right in itertools.combinations(ordered, 2):
            ours, theirs = _own_methods(left), _own_methods(right)
            duplicated += [f"{left.__name__}.{name} == {right.__name__}.{name}"
                           for name in ours.keys() & theirs.keys()
                           if ours[name] == theirs[name]]
    assert sorted(duplicated) == []


# -- idiom guard (also a step of the ``lint`` suite, tools/ci_run.py) --------

def _tracer_calls(node, method):
    """Calls of ``<anything ending in tracer>.<method>(...)`` under ``node``."""
    return [call for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == method
            and ast.unparse(call.func.value).endswith("tracer")]


def _has_yield(node):
    return any(isinstance(child, (ast.Yield, ast.YieldFrom))
               for child in ast.walk(node))


def _yields_timeout(statement):
    value = getattr(statement, "value", None)
    call = value.value if isinstance(value, ast.Yield) else None
    return (isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "timeout")


def timed_step_violations(package_dir):
    """Every place under ``package_dir`` that spells a timed, attributed
    step by hand instead of ``env.delay`` — a statement charging the
    tracer (bare or behind its ``is not None`` guard) whose block then
    sleeps on a ``yield ...timeout(...)`` before yielding anything else
    — or that records a flat event through ``Tracer.add``; any
    ``.delay(...)`` that is not the direct operand of a ``yield`` (it
    returns the bare ``float`` a process sleeps on, so a stored or
    combined result is a step that never happens); plus any ``yield`` in
    ``libc/libc.py``, whose methods hand back the target's generator."""
    found = []
    for path in sorted(pathlib.Path(package_dir).rglob("*.py")):
        relative = path.relative_to(package_dir).as_posix()
        tree = ast.parse(path.read_text())
        if relative == "libc/libc.py" and _has_yield(tree):
            found.append(f"{relative}: yield in Libc")
        found += [f"{relative}:{call.lineno} Tracer.add"
                  for call in _tracer_calls(tree, "add")]
        yielded = {id(node.value) for node in ast.walk(tree)
                   if isinstance(node, ast.Yield)}
        found += [f"{relative}:{call.lineno} delay not yielded"
                  for call in ast.walk(tree)
                  if isinstance(call, ast.Call)
                  and isinstance(call.func, ast.Attribute)
                  and call.func.attr == "delay" and id(call) not in yielded]
        blocks = [block for node in ast.walk(tree)
                  for block in (getattr(node, "body", None),
                                getattr(node, "orelse", None),
                                getattr(node, "finalbody", None))
                  if isinstance(block, list)]
        for block in blocks:
            for index, statement in enumerate(block):
                if not _tracer_calls(statement, "charge"):
                    continue
                step = next(filter(_has_yield, block[index + 1:]), None)
                if step is not None and _yields_timeout(step):
                    found.append(f"{relative}:{statement.lineno} "
                                 "charge then timeout")
    return found


def test_one_spelling_of_a_timed_step():
    assert timed_step_violations(pathlib.Path(repro.__file__).parent) == []


#: The only places a modelled layer may sleep on a raw, non-zero
#: ``yield ...timeout(x)``: pollers, whose wait is nobody's service time.
#: ``(file, function, argument) -> why it is not an env.delay``.
POLLERS = {
    ("kernel/page_cache.py", "daemon", "self.writeback_interval"):
        "periodic flusher: the pause between writeback passes",
    ("fs/dm_writecache.py", "write", "100 * US"):
        "throttle: re-check for writeback room while every block is dirty",
    ("fs/dm_writecache.py", "_writeback_daemon", "0.05"):
        "writeback daemon idling below the high watermark",
    ("core/read_cache.py", "allocate_content", "1e-06"):
        "CLOCK eviction back-off: every candidate locked or recently used",
    ("core/read_cache.py", "_evict_by_policy", "1e-06"):
        "policy eviction back-off: every victim pinned",
    ("core/cleanup.py", "_run", "_TICK"):
        "cleanup thread idle tick: log empty or below batch_min",
    ("core/cleanup.py", "_run", "_TICK / 10"):
        "cleanup thread waiting for the writer to commit the tail entry",
    ("core/paging.py", "_run", "_TICK"):
        "writeback thread idle tick: nothing dirty or nothing urgent",
    ("core/paging.py", "_run", "_TICK / 10"):
        "writeback thread back-off: the batch flushed nothing",
}


def _own_nodes(function):
    """Nodes of ``function``'s body, not those of functions nested in it."""
    pending = [function]
    while pending:
        for child in ast.iter_child_nodes(pending.pop()):
            if not isinstance(child, (ast.FunctionDef, ast.Lambda)):
                yield child
                pending.append(child)


def raw_timeouts(package_dir,
                 layers=("fs", "block", "kernel", "nvmm", "core")):
    """``(file, function, argument)`` of every ``yield ...timeout(x)`` in
    the modelled layers whose ``x`` is not the literal zero (a zero
    timeout is a reschedule point, not a cost)."""
    found = set()
    for layer in layers:
        for path in sorted((pathlib.Path(package_dir) / layer).rglob("*.py")):
            relative = path.relative_to(package_dir).as_posix()
            functions = [node for node in ast.walk(ast.parse(path.read_text()))
                         if isinstance(node, ast.FunctionDef)]
            for function in functions:
                for node in _own_nodes(function):
                    if not _yields_timeout(node):
                        continue
                    (argument,) = node.value.value.args
                    if not (isinstance(argument, ast.Constant)
                            and argument.value == 0):
                        found.add((relative, function.name,
                                   ast.unparse(argument)))
    return found


def test_raw_timeouts_are_allowlisted_pollers():
    """Every modelled step is an ``env.delay`` (so it is attributed);
    what still sleeps on a bare timeout is a poller named above — and
    every name above still exists."""
    assert raw_timeouts(pathlib.Path(repro.__file__).parent) == set(POLLERS)


def test_the_guard_sees_a_stored_or_combined_delay(tmp_path):
    (tmp_path / "layer.py").write_text(textwrap.dedent("""
        def step(env):
            yield env.delay(1.0, "fs", "commit")
            cost = env.delay(1.0, "fs", "commit")
            yield cost
            yield env.delay(1.0, "fs", "commit") + 1.0
    """))
    assert timed_step_violations(tmp_path) == [
        "layer.py:4 delay not yielded", "layer.py:6 delay not yielded"]
