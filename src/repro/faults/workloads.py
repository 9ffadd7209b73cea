"""Deterministic crash workloads for the explorer.

A crash workload is a :class:`PhasedWorkload`: a ``build`` callable
producing a fresh :class:`CrashRun` — a complete nvcache+ssd stack whose
application traffic goes through a
:class:`~repro.faults.oracle.TrackedNvcacheLibc` (so the oracle always
knows the two legal post-crash states) — plus one or two phase
generators driven through it. The explorer re-builds (or restores) the
machine for every (crash point, drop subset) case through
:class:`~repro.faults.snapshot.WarmStartFactory`, so workloads must be
fully deterministic: same construction, same simulated schedule, same
crash-point sequence on every run. All randomness is seeded.

:data:`WORKLOADS` names the shipped ones, mirroring the paper's
evaluation drivers:

- ``fio`` — fio-style sequential writes with periodic fsync; block size
  1024 over 512-byte log entries, so every write is a two-entry commit
  group (exercises group atomicity at every point). Two phases, split
  mid-stream.
- ``fio-mixed`` — seeded mix of pwrite/fsync/unlink/rename/truncate over
  a handful of files (exercises namespace replay). Single phase.
- ``fio-paging`` — fio-style traffic through the paging cache
  (``SMALL_PAGING_CONFIG``). Single phase.
- ``db_bench`` — db_bench ``fillseq`` over MiniRocks (WAL appends with
  per-write fsync). Two phases, split mid-fill.
- ``kvstore`` — MiniRocks puts/deletes with a memtable small enough to
  force an SSTable flush + MANIFEST write-temp/rename/unlink on close.
  Two phases, split before the delete.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, Generator, List, Optional

from ..block import SsdDevice
from ..core import CacheFacade, NvcacheConfig, cache_mode_row
from ..fs import Ext4
from ..kernel import Kernel
from ..kernel.fd_table import O_CREAT, O_RDWR, O_WRONLY
from ..nvmm import NvmmDevice
from ..sim import Environment
from ..units import MIB
from .oracle import FileModelOracle, TrackedNvcacheLibc

#: Small log geometry: enough room for every workload below, small
#: enough that exhaustive exploration stays fast.
SMALL_CONFIG = NvcacheConfig(
    log_entries=128, entry_data_size=512, read_cache_pages=16,
    batch_min=4, batch_max=32, fd_max=32, path_max=64,
    cleanup_idle_flush=0.01, page_size=4096)

#: Paging-mode sibling of SMALL_CONFIG: few slots (so writes hit the
#: slot-full / eviction paths), small writeback batches, fast idle flush
#: (so page_cleaned boundaries appear within short workloads).
SMALL_PAGING_CONFIG = replace(
    SMALL_CONFIG, cache_mode="paging", paging_slots=24,
    paging_batch_pages=6, paging_idle_flush=0.01)


@dataclass
class CrashRun:
    """One freshly built (or restored) stack, ready to be driven."""

    env: Environment
    kernel: Kernel
    ssd: SsdDevice
    nvmm: NvmmDevice
    nvcache: CacheFacade
    libc: TrackedNvcacheLibc
    oracle: FileModelOracle
    config: NvcacheConfig
    #: ``drive(expect_completion)`` runs the workload's phases through
    #: this machine and returns whether they ran to completion (an armed
    #: recorder may stop the environment first). Installed by
    #: :class:`~repro.faults.snapshot.WarmStartFactory`.
    drive: Callable[[bool], bool] = None
    #: Crash-point hits that happened before this run's recorder could
    #: attach — non-zero for a run restored from a checkpoint taken
    #: after phase A.
    crash_point_base: int = 0
    #: Called by the explorer after the crash image is captured and
    #: before the reboot. Workloads that arm a
    #: :class:`~repro.faults.injector.BlockFaultInjector` use this to
    #: disarm it so injected faults stop at the power cut and never
    #: corrupt the *recovery* I/O (fuzz fault plans target the live run).
    pre_reboot: Callable[["CrashRun"], None] = None
    #: Cross-phase workload state (fds, seeded RNGs, db handles); part
    #: of the machine snapshot, so phase B finds it after a restore.
    scratch: Dict = field(default_factory=dict)

    @property
    def devices(self) -> List[SsdDevice]:
        return [self.ssd]


@dataclass(frozen=True)
class PhasedWorkload:
    """A crash workload: a stack builder plus one or two phases.

    With a ``phase_b``, ``phase_a`` must end with the cache drained
    (``yield run.nvcache.cleanup.request_drain()``) so the machine can
    be parked and snapshotted at the boundary; ``phase_b`` continues
    from the parked state, and everything it needs from phase A travels
    in ``run.scratch``. Cold runs execute A, park, restart, then B;
    warm runs restore a pickled checkpoint and execute only B —
    byte-identically, because both sides resume through the exact same
    park/restart protocol (:mod:`repro.faults.snapshot`). Without a
    ``phase_b`` there is no boundary: every run is a plain cold run of
    ``phase_a``.
    """

    build: Callable[[], CrashRun]
    phase_a: Callable[[CrashRun], Generator]
    phase_b: Optional[Callable[[CrashRun], Generator]] = None


def build_crash_run(config: NvcacheConfig = SMALL_CONFIG,
                    ssd_size: int = 32 * MIB,
                    start_cleanup: bool = True) -> CrashRun:
    """The one stack builder: cache class and NVMM size come from the
    ``CACHE_MODES`` row ``config.cache_mode`` names (``recover``
    dispatches on the same row, so the explorer is mode-agnostic)."""
    cache_cls, required_size, _recover = cache_mode_row(config.cache_mode)
    env = Environment()
    ssd = SsdDevice(env, size=ssd_size)
    kernel = Kernel(env)
    kernel.mount("/", Ext4(env, ssd))
    nvmm = NvmmDevice(env, size=required_size(config))
    nvcache = cache_cls(env, kernel, nvmm, config,
                        start_cleanup=start_cleanup)
    oracle = FileModelOracle(config.entry_data_size)
    libc = TrackedNvcacheLibc(nvcache, oracle)
    return CrashRun(env=env, kernel=kernel, ssd=ssd, nvmm=nvmm,
                    nvcache=nvcache, libc=libc, oracle=oracle, config=config)


# -- fio ------------------------------------------------------------------


def fio_write_phased(ops: int = 16, block_size: int = 1024,
                     fsync_every: int = 4, seed: int = 7) -> PhasedWorkload:
    """fio ``rw=write``: sequential blocks + periodic fsync on one file,
    split mid-stream: phase A does the first half of the writes and
    drains; phase B finishes, closes, and drains again (so
    cleanup/block/ext4 boundaries appear in the enumeration too — the
    write phase is far shorter than the cleanup tick)."""
    boundary = ops // 2

    def write_range(run: CrashRun, start: int, stop: int) -> Generator:
        fd = run.scratch["fd"]
        rng = run.scratch["rng"]
        for i in range(start, stop):
            data = bytes([rng.randrange(256)]) * block_size
            yield from run.libc.pwrite(fd, data, i * block_size)
            if fsync_every and (i + 1) % fsync_every == 0:
                yield from run.libc.fsync(fd)

    def phase_a(run: CrashRun) -> Generator:
        run.scratch["rng"] = random.Random(seed)
        run.scratch["fd"] = yield from run.libc.open(
            "/bench.dat", O_CREAT | O_WRONLY)
        yield from write_range(run, 0, boundary)
        yield run.nvcache.cleanup.request_drain()

    def phase_b(run: CrashRun) -> Generator:
        yield from write_range(run, boundary, ops)
        yield from run.libc.close(run.scratch["fd"])
        yield run.nvcache.cleanup.request_drain()

    return PhasedWorkload(build_crash_run, phase_a, phase_b)


def fio_mixed_workload(ops: int = 14, seed: int = 11) -> PhasedWorkload:
    """Seeded mix of writes, fsyncs, truncates, renames and unlinks over
    a small set of files. Renames go to fresh names; a file is never
    written through a stale fd after unlink/rename (see oracle scope)."""

    def body(run: CrashRun) -> Generator:
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

    return PhasedWorkload(build_crash_run, body)


def fio_paging_workload(ops: int = 12, block_size: int = 1024,
                        fsync_every: int = 4, seed: int = 13) -> PhasedWorkload:
    """fio-style traffic through the *paging* cache: seeded writes over a
    few pages (partial writes exercise fill-reads, repeats exercise
    overwrite supersede), periodic fsync, a truncate (durable
    invalidation), then close + drain — so every paging persistence
    boundary (page_stored / commit_word / committed / page_cleaned /
    invalidated) appears in the enumeration."""

    def body(run: CrashRun) -> Generator:
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

    return PhasedWorkload(partial(build_crash_run, SMALL_PAGING_CONFIG), body)


# -- MiniRocks-based workloads --------------------------------------------


def db_bench_phased(num: int = 5, seed: int = 3,
                    value_size: int = 64) -> PhasedWorkload:
    """db_bench ``fillseq`` (sync mode) over MiniRocks — WAL append +
    fsync per put, the paper's Fig 3 write path — split mid-fill: phase A
    opens MiniRocks and puts the first half of the key range (same
    key/value streams as ``DbBench.fillseq``), phase B puts the rest and
    closes the WAL."""
    boundary = num // 2

    def put_range(run: CrashRun, start: int, stop: int) -> Generator:
        from ..workloads.db_bench import make_key, make_value
        db = run.scratch["db"]
        rng = run.scratch["rng"]
        for i in range(start, stop):
            yield from db.put(make_key(i), make_value(rng, value_size))

    def phase_a(run: CrashRun) -> Generator:
        from ..apps.kvstore import KVOptions, MiniRocks
        run.scratch["db"] = yield from MiniRocks.open(
            run.libc, "/db", KVOptions(sync=True))
        run.scratch["rng"] = random.Random(seed)
        yield from put_range(run, 0, boundary)
        yield run.nvcache.cleanup.request_drain()

    def phase_b(run: CrashRun) -> Generator:
        yield from put_range(run, boundary, num)
        yield from run.scratch["db"].wal.close()
        yield run.nvcache.cleanup.request_drain()

    return PhasedWorkload(build_crash_run, phase_a, phase_b)


def kvstore_phased(puts: int = 6, seed: int = 5) -> PhasedWorkload:
    """MiniRocks puts + a delete, with a memtable small enough that the
    close-time flush writes an SSTable and replaces the MANIFEST
    (write-temp + rename + unlink) — namespace churn under the log.
    Split before the delete: phase B carries the memtable-flush close."""
    boundary = puts // 2

    def phase_a(run: CrashRun) -> Generator:
        from ..apps.kvstore import KVOptions, MiniRocks
        options = KVOptions(sync=True, memtable_bytes=1 << 16)
        db = yield from MiniRocks.open(run.libc, "/kv", options)
        rng = random.Random(seed)
        run.scratch["db"] = db
        run.scratch["rng"] = rng
        for i in range(boundary):
            yield from db.put(b"%08d" % i, bytes([rng.randrange(256)]) * 48)
        yield run.nvcache.cleanup.request_drain()

    def phase_b(run: CrashRun) -> Generator:
        db = run.scratch["db"]
        rng = run.scratch["rng"]
        for i in range(boundary, puts):
            yield from db.put(b"%08d" % i, bytes([rng.randrange(256)]) * 48)
        yield from db.delete(b"%08d" % 0)
        yield from db.close()
        yield run.nvcache.cleanup.request_drain()

    return PhasedWorkload(build_crash_run, phase_a, phase_b)


#: The one table of named crash workloads: name -> maker. Every maker
#: takes its op count as the first positional argument (``--ops``).
WORKLOADS: Dict[str, Callable[..., PhasedWorkload]] = {
    "fio": fio_write_phased,
    "fio-mixed": fio_mixed_workload,
    "fio-paging": fio_paging_workload,
    "db_bench": db_bench_phased,
    "kvstore": kvstore_phased,
}
