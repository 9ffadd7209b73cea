"""Deterministic crash workloads for the explorer.

A crash workload is a :class:`CrashWorkload`: the ``body`` generator
an application runs, plus the cache ``config`` of the ``nvcache+ssd``
stack it runs on (:meth:`CrashWorkload.build`). The explorer builds a
fresh machine and runs the body from ``t=0`` for every (crash point,
drop subset) case (:func:`run_workload`), so workloads must be fully
deterministic: same construction, same simulated schedule, same
crash-point sequence on every run. All randomness is seeded.

:data:`WORKLOADS` names the shipped ones, mirroring the paper's
evaluation drivers:

- ``fio`` — fio-style sequential writes with periodic fsync; block size
  1024 over 512-byte log entries, so every write is a two-entry commit
  group (exercises group atomicity at every point). Drains mid-stream.
- ``fio-mixed`` — seeded mix of pwrite/fsync/unlink/rename/truncate over
  a handful of files (exercises namespace replay).
- ``fio-paging`` — fio-style traffic through the paging cache
  (``SMALL_PAGING_CONFIG``).
- ``db_bench`` — db_bench ``fillseq`` over MiniRocks (WAL appends with
  per-write fsync). Drains mid-fill.
- ``kvstore`` — MiniRocks puts/deletes with a memtable small enough to
  force an SSTable flush + MANIFEST write-temp/rename/unlink on close.
  Drains halfway through the puts.

The three that drain mid-stream do so to keep drain-time sites —
cleanup, block and ext4 boundaries between two bursts of writes — in the
enumeration (:func:`_two_bursts`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, Generator

from ..core import NvcacheConfig
from ..harness.systems import StorageStack, build_stack
from ..kernel.fd_table import O_CREAT, O_RDWR, O_WRONLY
from .oracle import FileModelOracle, TrackedNvcacheLibc

#: Small log geometry: enough room for every workload below, small
#: enough that exhaustive exploration stays fast.
SMALL_CONFIG = NvcacheConfig(
    log_entries=128, entry_data_size=512, read_cache_pages=16,
    batch_min=4, batch_max=32, fd_max=32, path_max=64,
    cleanup_idle_flush=0.01, page_size=4096)

#: Paging-mode sibling of SMALL_CONFIG: few slots (so writes hit the
#: slot-full / eviction paths), small writeback batches, and
#: SMALL_CONFIG's fast idle flush (so page_cleaned boundaries appear
#: within short workloads).
SMALL_PAGING_CONFIG = replace(
    SMALL_CONFIG, cache_mode="paging", paging_slots=24,
    paging_batch_pages=6)


class ExplorationError(RuntimeError):
    """The harness itself misbehaved (non-deterministic workload,
    trigger never fired, workload crashed)."""


@dataclass(frozen=True)
class CrashWorkload:
    """A crash workload: the generator an application runs, and the
    cache configuration of the stack it runs on."""

    body: Callable[[StorageStack], Generator]
    config: NvcacheConfig = SMALL_CONFIG

    def build(self) -> StorageStack:
        """A fresh :func:`~repro.harness.systems.build_stack`
        ``nvcache+ssd`` stack (any ``CACHE_MODES`` row, by
        ``config.cache_mode``) whose libc reports every call to the
        oracle, ``stack.libc.oracle``."""
        stack = build_stack("nvcache+ssd", config=self.config)
        oracle = FileModelOracle()
        stack.libc = TrackedNvcacheLibc(stack.nvcache, oracle)
        return stack


def run_workload(run: StorageStack, workload: CrashWorkload,
                 expect_completion: bool = True) -> bool:
    """Spawn the body as the ``crash-workload`` process and run the
    environment until it completes — daemons (cleanup) keep the event
    queue non-empty forever, so completion is signalled by stopping the
    environment, and an armed recorder may stop it first. Returns True
    when the body ran to completion."""
    process = run.env.spawn(workload.body(run), name="crash-workload")
    process.subscribe(lambda _value, _exc: run.env.stop())
    run.env.run()
    if process.exception is not None:
        raise ExplorationError("crash workload raised") from process.exception
    if process.alive:
        if expect_completion:
            raise ExplorationError("crash workload did not complete")
        return False
    return True


def _two_bursts(run: StorageStack, total: int,
                op: Callable[[int], Generator]) -> Generator:
    """``op(i)`` for every ``i`` in ``range(total)``, with the log
    drained after the first half — so cleanup, block and ext4 boundaries
    *between* two bursts of writes are in the enumeration, not only the
    ones after the last write."""
    boundary = total // 2
    for i in range(boundary):
        yield from op(i)
    yield run.nvcache.cleanup.request_drain()
    for i in range(boundary, total):
        yield from op(i)


# -- fio ------------------------------------------------------------------


def fio_write_phased(ops: int = 16, block_size: int = 1024,
                     fsync_every: int = 4, seed: int = 7) -> CrashWorkload:
    """fio ``rw=write``: sequential blocks + periodic fsync on one file.
    Drains after the first half of the writes, then finishes, closes,
    and drains again (so cleanup/block/ext4 boundaries appear in the
    enumeration too — the write phase is far shorter than the cleanup
    tick)."""

    def body(run: StorageStack) -> Generator:
        rng = random.Random(seed)
        fd = yield from run.libc.open("/bench.dat", O_CREAT | O_WRONLY)

        def write(i: int) -> Generator:
            data = bytes([rng.randrange(256)]) * block_size
            yield from run.libc.pwrite(fd, data, i * block_size)
            if fsync_every and (i + 1) % fsync_every == 0:
                yield from run.libc.fsync(fd)

        yield from _two_bursts(run, ops, write)
        yield from run.libc.close(fd)
        yield run.nvcache.cleanup.request_drain()

    return CrashWorkload(body)


def fio_mixed_workload(ops: int = 14, seed: int = 11) -> CrashWorkload:
    """Seeded mix of writes, fsyncs, truncates, renames and unlinks over
    a small set of files. Renames go to fresh names; a file is never
    written through a stale fd after unlink/rename (see oracle scope)."""

    def body(run: StorageStack) -> Generator:
        libc = run.libc
        rng = random.Random(seed)
        fds = {}  # path -> fd
        serial = 0

        def fresh_name():
            nonlocal serial
            serial += 1
            return f"/m{serial}"

        for _ in range(3):
            path = fresh_name()
            fds[path] = yield from libc.open(path, O_CREAT | O_RDWR)
        for _ in range(ops):
            action = rng.randrange(10)
            path = rng.choice(sorted(fds))
            fd = fds[path]
            if action < 5:   # write (sometimes a group write)
                size = rng.choice((96, 512, 1300))
                offset = rng.randrange(0, 4) * 512
                data = bytes([rng.randrange(256)]) * size
                yield from libc.pwrite(fd, data, offset)
            elif action < 7:  # fsync (free under NVCache)
                yield from libc.fsync(fd)
            elif action == 7:  # truncate
                yield from libc.ftruncate(fd, rng.randrange(0, 1024))
            elif action == 8 and len(fds) > 1:  # close + unlink
                yield from libc.close(fd)
                del fds[path]
                yield from libc.unlink(path)
            else:            # close + rename + reopen under new name
                yield from libc.close(fd)
                del fds[path]
                new = fresh_name()
                yield from libc.rename(path, new)
                fds[new] = yield from libc.open(new, O_RDWR)
        for path in sorted(fds):
            yield from libc.close(fds[path])
        yield run.nvcache.cleanup.request_drain()

    return CrashWorkload(body)


def fio_paging_workload(ops: int = 12, block_size: int = 1024,
                        fsync_every: int = 4, seed: int = 13) -> CrashWorkload:
    """fio-style traffic through the *paging* cache: seeded writes over a
    few pages (partial writes exercise fill-reads, repeats exercise
    overwrite supersede), periodic fsync, a truncate (durable
    invalidation), then close + drain — so every paging persistence
    boundary (page_stored / commit_word / committed / page_cleaned /
    invalidated) appears in the enumeration."""

    def body(run: StorageStack) -> Generator:
        libc = run.libc
        rng = random.Random(seed)
        fd = yield from libc.open("/bench.dat", O_CREAT | O_RDWR)
        for i in range(ops):
            page = rng.randrange(4)
            in_page = rng.choice((0, 512, 2048))
            data = bytes([rng.randrange(256)]) * block_size
            yield from libc.pwrite(fd, data, page * 4096 + in_page)
            if fsync_every and (i + 1) % fsync_every == 0:
                yield from libc.fsync(fd)
        yield from libc.ftruncate(fd, 2048)
        yield from libc.pwrite(fd, b"\xab" * block_size, 1024)
        yield from libc.close(fd)
        yield run.nvcache.cleanup.request_drain()

    return CrashWorkload(body, SMALL_PAGING_CONFIG)


# -- MiniRocks-based workloads --------------------------------------------


def db_bench_phased(num: int = 5, seed: int = 3,
                    value_size: int = 64) -> CrashWorkload:
    """db_bench ``fillseq`` (sync mode) over MiniRocks — WAL append +
    fsync per put, the paper's Fig 3 write path (same key/value streams
    as ``DbBench.fillseq``) — draining mid-fill, then closing the WAL."""

    def body(run: StorageStack) -> Generator:
        from ..apps.kvstore import KVOptions, MiniRocks
        from ..workloads.db_bench import make_key, make_value
        db = yield from MiniRocks.open(run.libc, "/db", KVOptions(sync=True))
        rng = random.Random(seed)
        yield from _two_bursts(
            run, num,
            lambda i: db.put(make_key(i), make_value(rng, value_size)))
        yield from db.wal.close()
        yield run.nvcache.cleanup.request_drain()

    return CrashWorkload(body)


def kvstore_phased(puts: int = 6, seed: int = 5) -> CrashWorkload:
    """MiniRocks puts + a delete, with a memtable small enough that the
    close-time flush writes an SSTable and replaces the MANIFEST
    (write-temp + rename + unlink) — namespace churn under the log.
    Drains mid-stream, before the second half of the puts."""

    def body(run: StorageStack) -> Generator:
        from ..apps.kvstore import KVOptions, MiniRocks
        options = KVOptions(sync=True, memtable_bytes=1 << 16)
        db = yield from MiniRocks.open(run.libc, "/kv", options)
        rng = random.Random(seed)
        yield from _two_bursts(
            run, puts,
            lambda i: db.put(b"%08d" % i, bytes([rng.randrange(256)]) * 48))
        yield from db.delete(b"%08d" % 0)
        yield from db.close()
        yield run.nvcache.cleanup.request_drain()

    return CrashWorkload(body)


#: The one table of named crash workloads: name -> maker. Every maker
#: takes its op count as the first positional argument (``--ops``).
WORKLOADS: Dict[str, Callable[..., CrashWorkload]] = {
    "fio": fio_write_phased,
    "fio-mixed": fio_mixed_workload,
    "fio-paging": fio_paging_workload,
    "db_bench": db_bench_phased,
    "kvstore": kvstore_phased,
}
