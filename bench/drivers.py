"""The five benchmark workloads: build a stack, drive it, verify its outputs.

Everything here goes through the public harness API (``build_stack``,
``nvcache_config``, ``run_fio``, ``MiniRocks``, ``DbBench``). The program
only ever sees inputs generated from the seed; both clocks are stamped
from outside it (a ``settle=`` wrapper for fio, the driver body for
db_bench), so the timed region starts after build + layout + settle and
ends when the driver returns, ``close()`` included.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps import KVOptions, MiniRocks
from repro.harness import Scale, build_stack, nvcache_config
from repro.kernel.fd_table import O_RDONLY
from repro.units import GIB, KIB
from repro.workloads import DbBench, FioJob, run_fio

#: EXPERIMENTS.md geometry (paper sizes / 512), so numbers cross-check.
FULL_FACTOR = 512
#: ``--smoke``: the same shapes 16x smaller, for the benchmark's own tests.
SMOKE_FACTOR = 8192

BLOCK = 4 * KIB
VERIFY_CHUNK = 64 * BLOCK
#: Pass B keeps every span of a full-size run in memory (layout + run +
#: drain is ~0.5 M spans); the default 200 k would drop and skew shares.
TRACE_CAPACITY = 4_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                           # "fio" | "kv"
    stack: str                          # build_stack name
    rw: str = "randwrite"
    paper_bytes: int = 20 * GIB         # bytes moved = file size (paper scale)
    paper_log_bytes: Optional[int] = None
    batch: Tuple[int, int] = (1_000, 10_000)
    paper_mib_per_s: Optional[float] = None   # reference result, if any

    def config(self, scale: Scale):
        if self.paper_log_bytes is None:
            return None
        shrink = scale.factor // FULL_FACTOR
        return nvcache_config(scale, log_bytes=scale.of(self.paper_log_bytes),
                              batch_min=max(1, self.batch[0] // shrink),
                              batch_max=max(1, self.batch[1] // shrink))

    def ops(self, scale: Scale) -> int:
        if self.kind == "kv":
            return 2 * (KV_NUM * FULL_FACTOR // scale.factor)
        return scale.of(self.paper_bytes) // BLOCK


KV_NUM = 6000
KV_VALUE = 1024

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "fio_randwrite_ideal",
        "log never fills: the foreground write path (libc, core.nvcache, "
        "core.log, nvmm) sets both clocks; paper Fig 4, ref 493 MiB/s",
        "fio", "nvcache+ssd", paper_log_bytes=32 * GIB,
        paper_mib_per_s=493.0),
    Workload(
        "fio_randwrite_saturated",
        "log fills mid-run: writers park on log_full_wait and cleanup, kernel, "
        "fs, block set the simulated result; paper Fig 5, 8 GiB log",
        "fio", "nvcache+ssd", paper_log_bytes=8 * GIB),
    Workload(
        "fio_randrw_mixed",
        "reads beside writes: read cache, dirty-miss patching, page-cache "
        "reads; a write gain bought with read cost shows here; paper Fig 7",
        "fio", "nvcache+ssd", rw="randrw", paper_bytes=10 * GIB,
        paper_log_bytes=32 * GIB),
    Workload(
        "db_bench_kv",
        "application shape: MiniRocks WAL appends + fsync, memtable flush, "
        "compaction, many files; fillseq then readrandom; paper Fig 3",
        "kv", "nvcache+ssd", paper_log_bytes=5 * GIB, batch=(100, 1000)),
    Workload(
        "fio_randwrite_ssd",
        "bypass: no NVCache, so core and nvmm do zero work and kernel, fs, "
        "block do all of it; paper Fig 4 baseline, ref 15 MiB/s",
        "fio", "ssd", paper_mib_per_s=15.0),
)}


@dataclass(frozen=True)
class Probes:
    """What observes this repeat; nothing, for the end-to-end passes."""

    attached: bool = False          # build_stack(metrics=True, tracing=True)
    profiler: object = None         # a cProfile.Profile, enabled in the region


@dataclass
class Repeat:
    """One build + drive + verify of a workload, on both clocks."""

    ops: int                        # application ops attempted
    failed: int = 0                 # ops that raised + verification mismatches
    crashed: bool = False           # the driver raised: no timing to report
    checked: int = 0                # blocks / keys verified after the region
    user_bytes: int = 0
    setup_s: float = 0.0            # host: build_stack + layout/open + settle
    host_s: float = 0.0             # host: the timed region
    sim_elapsed_s: float = 0.0      # simulated: first to last op completion
    sim_start: float = 0.0          # simulated clock at the region's edges
    sim_end: float = 0.0
    events: int = 0                 # env.events_dispatched at region end
    latencies: List[Tuple[float, bool]] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)  # region deltas
    # Kept for pass B only: holding every repeat's stack would grow RSS
    # and slow the collector under the later repeats.
    stack: object = None
    fio: object = None              # the FioResult, for saturation_point

    def sim_signature(self) -> tuple:
        """Everything the simulated clock produced; equal across repeats,
        runs and probe settings or the simulator is not deterministic."""
        return (self.ops, self.user_bytes, self.sim_elapsed_s,
                self.sim_end - self.sim_start, self.events,
                tuple(self.latencies))


class Region:
    """Stamps both clocks at the edges of the timed region."""

    def __init__(self, stack, probes: Probes, repeat: Repeat, built_at: float):
        self.stack = stack
        self.probes = probes
        self.repeat = repeat
        self.built_at = built_at
        self._before: Dict[str, float] = {}
        self._host_start = 0.0

    def start(self) -> None:
        if self.stack.metrics is not None:
            self._before = self.stack.metrics.snapshot()
        self.repeat.sim_start = self.stack.env.now
        self.repeat.setup_s = time.process_time() - self.built_at
        if self.probes.profiler is not None:
            self.probes.profiler.enable()
        self._host_start = time.process_time()

    def stop(self) -> None:
        repeat = self.repeat
        repeat.host_s = time.process_time() - self._host_start
        if self.probes.profiler is not None:
            self.probes.profiler.disable()
        repeat.sim_end = self.stack.env.now
        if self.stack.metrics is not None:
            after = self.stack.metrics.snapshot()
            repeat.counters = {name: value - self._before.get(name, 0)
                               for name, value in after.items()}


def run_repeat(workload: Workload, seed: int, scale: Scale,
               probes: Probes = Probes(), ops: Optional[int] = None) -> Repeat:
    """One repeat. ``ops=0`` drives the same set-up with no operations:
    its event count is the baseline that ``events_per_op`` subtracts
    (``env.events_dispatched`` is only current between ``run`` calls, so
    it cannot be stamped from inside the settle wrapper).

    A driver that raises is a failed repeat, not a crashed runner: all
    its ops count as failed.
    """
    if ops is None:
        ops = workload.ops(scale)
    drive = _drive_kv if workload.kind == "kv" else _drive_fio
    repeat = Repeat(ops=ops)
    try:
        drive(workload, seed, scale, probes, repeat)
    except Exception:  # noqa: BLE001 — boundary: report, keep the suite running
        traceback.print_exc()
        if probes.profiler is not None:
            probes.profiler.disable()
        repeat.crashed = True
        repeat.ops = repeat.failed = max(ops, 1)
        repeat.checked = 0
    return repeat


def _keep_for_pass_b(repeat: Repeat, stack) -> None:
    """Pass B reads the tracer afterwards. Teardown drains the log first,
    so a drain batch still in flight when the region ended is a closed
    span too (the tracer only lists closed ones)."""
    stack.env.run_process(stack.teardown(), name="teardown")
    repeat.stack = stack


def _build(workload: Workload, scale: Scale, probes: Probes):
    return build_stack(workload.stack, scale, config=workload.config(scale),
                       metrics=probes.attached, tracing=probes.attached,
                       trace_capacity=TRACE_CAPACITY)


# -- fio ------------------------------------------------------------------

FIO_PATH = "/fio.dat"


def _drive_fio(workload, seed, scale, probes, repeat) -> None:
    built_at = time.process_time()
    stack = _build(workload, scale, probes)
    region_bytes = scale.of(workload.paper_bytes)
    job = FioJob(rw=workload.rw, block_size=BLOCK, size=repeat.ops * BLOCK,
                 file_size=region_bytes, fsync=1, direct=True, rwmixread=50,
                 seed=seed)
    region = Region(stack, probes, repeat, built_at)

    def settle():
        yield from stack.settle()
        region.start()

    result = run_fio(stack.env, stack.libc, job, FIO_PATH, settle=settle)
    region.stop()
    repeat.events = stack.env.events_dispatched
    repeat.user_bytes = result.bytes_written + result.bytes_read
    repeat.sim_elapsed_s = result.elapsed
    repeat.latencies = [(latency, is_write)
                        for _t, _n, latency, is_write in result.completions]
    repeat.checked, mismatches = _verify_fio(stack, job)
    repeat.failed += mismatches
    if probes.attached:
        repeat.fio = result
        _keep_for_pass_b(repeat, stack)


def _written_blocks(job: FioJob) -> set:
    """Replays the job's offset stream (job 0 of ``run_fio``)."""
    rng = random.Random(job.seed)
    blocks = job.region // job.block_size
    written = set()
    for _ in range(job.operations()):
        block = rng.randrange(blocks)
        if job.rw == "randwrite" or rng.randrange(100) >= job.rwmixread:
            written.add(block)
    return written


def _verify_fio(stack, job: FioJob) -> Tuple[int, int]:
    """Re-read the whole file through a fresh open: the job's pattern
    where it wrote, zeros where it never did."""
    written = _written_blocks(job)
    pattern = bytes(i % 256 for i in range(job.block_size))
    zeros = bytes(job.block_size)
    libc = stack.libc
    tally = {"checked": 0, "mismatches": 0}

    def body():
        fd = yield from libc.open(FIO_PATH, O_RDONLY)
        for offset in range(0, job.region, VERIFY_CHUNK):
            data = yield from libc.pread(fd, VERIFY_CHUNK, offset)
            for at in range(0, min(VERIFY_CHUNK, job.region - offset),
                            job.block_size):
                block = (offset + at) // job.block_size
                expected = pattern if block in written else zeros
                tally["checked"] += 1
                if data[at:at + job.block_size] != expected:
                    tally["mismatches"] += 1
        yield from libc.close(fd)

    stack.env.run_process(body(), name="bench-verify")
    return tally["checked"], tally["mismatches"]


# -- db_bench over MiniRocks ----------------------------------------------

KV_DIR = "/db"
KV_OPTIONS = dict(sync=True, memtable_bytes=128 * KIB, level_limit=4)


class _StampedDb:
    """put/get proxy handed to ``DbBench``: stamps per-op simulated
    latency, keeps the dict model, and checks every read against it."""

    def __init__(self, env, db, repeat: Repeat, model: Dict[bytes, bytes]):
        self.env = env
        self.db = db
        self.repeat = repeat
        self.model = model

    def put(self, key, value):
        began = self.env.now
        yield from self.db.put(key, value)
        self.repeat.latencies.append((self.env.now - began, True))
        self.model[key] = value

    def get(self, key):
        began = self.env.now
        value = yield from self.db.get(key)
        self.repeat.latencies.append((self.env.now - began, False))
        if value != self.model.get(key):
            self.repeat.failed += 1
        return value


def _drive_kv(workload, seed, scale, probes, repeat) -> None:
    built_at = time.process_time()
    stack = _build(workload, scale, probes)
    env = stack.env
    region = Region(stack, probes, repeat, built_at)
    num = repeat.ops // 2
    model: Dict[bytes, bytes] = {}

    def timed():
        db = yield from MiniRocks.open(stack.libc, KV_DIR,
                                       KVOptions(**KV_OPTIONS))
        bench = DbBench(env, _StampedDb(env, db, repeat, model), num=num,
                        seed=seed, value_size=KV_VALUE)
        region.start()
        if num:
            fill = yield from bench.fillseq()
            read = yield from bench.readrandom()
            repeat.user_bytes = fill.bytes_moved + read.bytes_moved
            repeat.sim_elapsed_s = fill.elapsed + read.elapsed
        yield from db.close()
        region.stop()

    def verify():
        db = yield from MiniRocks.open(stack.libc, KV_DIR,
                                       KVOptions(**KV_OPTIONS))
        for key, value in model.items():
            got = yield from db.get(key)
            repeat.checked += 1
            if got != value:
                repeat.failed += 1
        yield from db.close()

    env.run_process(timed(), name="db_bench")
    repeat.events = env.events_dispatched
    env.run_process(verify(), name="bench-verify")
    if probes.attached:
        _keep_for_pass_b(repeat, stack)
