"""Fuzz-case grammar: schedules, crash selection, faults, mutation.

A :class:`FuzzCase` is a frozen value describing one point in the joint
search space the ROADMAP names:

- ``schedule`` — a tuple of grammar ops (open/pwrite/append/fsync/
  ftruncate/rename/unlink/recreate over small file slots), interpreted
  deterministically against a fresh crash stack;
- ``crash_fracs`` — 1..3 fractions in [0, 1) mapped onto the case's own
  enumerated crash-point stream (fractions, not indices, so a mutation
  that lengthens the schedule keeps crashing "around the same place");
- ``survivor_seed`` — 0 for the drop-everything power cut, otherwise
  the seed for a random surviving-cache-line subset;
- ``fault_plan`` — explicit :class:`~repro.faults.injector.
  BlockFaultInjector` entries (``("fail", n)`` / ``("tear", n)`` by
  0-based SSD write index), disarmed at the power cut so recovery I/O
  stays clean.

Everything is plain ints/strs in tuples: cases pickle across
``repro.parallel`` workers, serialize to canonical JSON, and digest
stably (sha256 prefix) for corpus dedup. Seed cases mirror the paper's
evaluation drivers via :data:`repro.workloads.FUZZ_SEED_MIXES`; mutation
can reach ops no seed family uses (``recreate``), which is exactly the
coverage frontier the fitness signal rewards.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from typing import Dict, Generator, List, Sequence, Tuple

from ..core import NvcacheConfig
from ..faults.injector import BlockFaultInjector
from ..faults.workloads import (SMALL_CONFIG, CrashRun, CrashWorkload,
                                build_crash_run)
from ..kernel.fd_table import O_CREAT, O_RDWR
from ..workloads import FUZZ_SEED_MIXES

#: pwrite/append payload sizes: sub-entry, exactly one entry, two
#: entries, a ragged group, four entries (SMALL_CONFIG entries are 512B).
SIZES = (64, 512, 1024, 1300, 2048)

OP_KINDS = ("open", "pwrite", "append", "fsync", "ftruncate",
            "rename", "unlink", "recreate")

#: mutation-time op mix: uniform, so rare kinds are reachable.
_UNIFORM_MIX = {kind: 1 for kind in OP_KINDS}

MAX_OPS = 24
MAX_FRACS = 3
MAX_FAULTS = 3
_SLOTS = 4
_BLOCKS = 8           # pwrite offsets are block * 512, block < _BLOCKS
_FAULT_INDEX_RANGE = 24

FAULT_KINDS = ("fail", "tear")


@dataclass(frozen=True)
class FuzzCase:
    """One deterministic (schedule, crash, survivors, faults) case."""

    schedule: Tuple[Tuple, ...]
    crash_fracs: Tuple[float, ...] = (0.5,)
    survivor_seed: int = 0
    fault_plan: Tuple[Tuple, ...] = ()

    # -- wire format --------------------------------------------------------

    def to_fields(self) -> Dict:
        """Primitive (picklable, JSON-able) form."""
        return {
            "schedule": [list(op) for op in self.schedule],
            "crash_fracs": list(self.crash_fracs),
            "survivor_seed": self.survivor_seed,
            "fault_plan": [list(entry) for entry in self.fault_plan],
        }

    @classmethod
    def from_fields(cls, fields: Dict) -> "FuzzCase":
        return cls(
            schedule=tuple(tuple(op) for op in fields["schedule"]),
            crash_fracs=tuple(fields["crash_fracs"]),
            survivor_seed=fields["survivor_seed"],
            fault_plan=tuple(tuple(entry)
                             for entry in fields["fault_plan"]))

    def digest(self) -> str:
        """Stable case identity: sha256 prefix of the canonical JSON
        form. Two structurally equal cases always share a digest, in
        any process, on any worker count."""
        canonical = json.dumps(self.to_fields(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    def stack_digest(self) -> str:
        """Identity of the *simulated machine run* — schedule + fault
        plan only. Cases differing only in crash selection or survivor
        seed replay the same run, so per-worker explorer caches key on
        this (the enumeration pass is the dominant per-case cost)."""
        canonical = json.dumps(
            [[list(op) for op in self.schedule],
             [list(entry) for entry in self.fault_plan]],
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# -- generation -------------------------------------------------------------


def _weighted_kind(rng: random.Random, mix: Dict[str, int]) -> str:
    kinds = sorted(mix)
    total = sum(mix[kind] for kind in kinds)
    pick = rng.randrange(total)
    for kind in kinds:
        pick -= mix[kind]
        if pick < 0:
            return kind
    return kinds[-1]


def _sample_op(rng: random.Random, mix: Dict[str, int]) -> Tuple:
    kind = _weighted_kind(rng, mix)
    if kind == "open":
        return ("open",)
    if kind == "pwrite":
        return ("pwrite", rng.randrange(_SLOTS), rng.randrange(_BLOCKS),
                rng.randrange(len(SIZES)), rng.randrange(256))
    if kind == "append":
        return ("append", rng.randrange(_SLOTS),
                rng.randrange(len(SIZES)), rng.randrange(256))
    if kind == "fsync":
        return ("fsync", rng.randrange(_SLOTS))
    if kind == "ftruncate":
        return ("ftruncate", rng.randrange(_SLOTS), rng.randrange(2048))
    if kind == "rename":
        return ("rename", rng.randrange(_SLOTS))
    if kind == "unlink":
        return ("unlink", rng.randrange(_SLOTS))
    if kind == "recreate":
        return ("recreate", rng.randrange(_SLOTS))
    raise ValueError(f"unknown op kind {kind!r}")


def _fresh_fracs(rng: random.Random) -> Tuple[float, ...]:
    count = rng.randrange(1, MAX_FRACS + 1)
    return tuple(round(rng.random(), 4) for _ in range(count))


def fresh_case(rng: random.Random,
               families: Sequence[str] = tuple(sorted(FUZZ_SEED_MIXES)),
               max_ops: int = 12) -> FuzzCase:
    """A brand-new case sampled from one driver family's op mix."""
    mix = FUZZ_SEED_MIXES[families[rng.randrange(len(families))]]
    length = rng.randrange(4, max_ops + 1)
    schedule = tuple(_sample_op(rng, mix) for _ in range(length))
    survivor_seed = rng.randrange(1, 1 << 16) if rng.random() < 0.3 else 0
    fault_plan: Tuple[Tuple, ...] = ()
    if rng.random() < 0.2:
        fault_plan = ((FAULT_KINDS[rng.randrange(2)],
                       rng.randrange(_FAULT_INDEX_RANGE)),)
    return FuzzCase(schedule=schedule, crash_fracs=_fresh_fracs(rng),
                    survivor_seed=survivor_seed, fault_plan=fault_plan)


def seed_cases(families: Sequence[str] = tuple(sorted(FUZZ_SEED_MIXES))
               ) -> List[FuzzCase]:
    """One canonical, handwritten case per driver family — the corpus
    every campaign starts from. Deterministic: no RNG."""
    catalog: Dict[str, FuzzCase] = {}

    # fio rw=write: sequential 1024B blocks (two-entry commit groups),
    # fsync every 4 writes.
    fio_ops: List[Tuple] = []
    for i in range(6):
        fio_ops.append(("pwrite", 0, 2 * i, 2, 65 + i))
        if (i + 1) % 4 == 0:
            fio_ops.append(("fsync", 0))
    catalog["fio"] = FuzzCase(schedule=tuple(fio_ops),
                              crash_fracs=(0.25, 0.75))

    # fio mixed: writes over two files with a truncate, a rename and an
    # unlink in the stream.
    catalog["fio-mixed"] = FuzzCase(schedule=(
        ("open",),
        ("pwrite", 0, 0, 3, 77), ("pwrite", 1, 1, 1, 78), ("fsync", 0),
        ("ftruncate", 0, 700), ("rename", 1), ("pwrite", 1, 0, 1, 79),
        ("unlink", 0),
    ), crash_fracs=(0.3, 0.8))

    # db_bench fillseq: WAL-style append + fsync per put.
    db_ops: List[Tuple] = []
    for i in range(5):
        db_ops.append(("append", 0, 1, 97 + i))
        db_ops.append(("fsync", 0))
    catalog["db_bench"] = FuzzCase(schedule=tuple(db_ops),
                                   crash_fracs=(0.5,))

    # kvstore: appends plus MANIFEST-style replace (rename) and unlink.
    catalog["kvstore"] = FuzzCase(schedule=(
        ("append", 0, 1, 107), ("fsync", 0), ("append", 0, 2, 108),
        ("open",), ("append", 1, 1, 109), ("rename", 1),
        ("unlink", 0),
    ), crash_fracs=(0.4, 0.9))

    # ycsb update-heavy: overwrites at scattered offsets.
    catalog["ycsb"] = FuzzCase(schedule=(
        ("pwrite", 0, 3, 1, 117), ("pwrite", 0, 0, 2, 118),
        ("pwrite", 0, 6, 1, 119), ("fsync", 0),
        ("pwrite", 0, 3, 3, 120), ("pwrite", 0, 1, 0, 121),
    ), crash_fracs=(0.6,))

    return [catalog[family] for family in families]


# -- mutation ---------------------------------------------------------------

MUTATION_KINDS = ("insert", "delete", "duplicate", "tweak",
                  "crash", "survivor", "fault", "splice")


def _mutate_once(rng: random.Random, case: FuzzCase,
                 pool: Sequence[FuzzCase]) -> Tuple[FuzzCase, str]:
    kind = MUTATION_KINDS[rng.randrange(len(MUTATION_KINDS))]
    schedule = list(case.schedule)
    if kind == "insert" and len(schedule) < MAX_OPS:
        schedule.insert(rng.randrange(len(schedule) + 1),
                        _sample_op(rng, _UNIFORM_MIX))
        return replace(case, schedule=tuple(schedule)), kind
    if kind == "delete" and len(schedule) > 1:
        del schedule[rng.randrange(len(schedule))]
        return replace(case, schedule=tuple(schedule)), kind
    if kind == "duplicate" and schedule and len(schedule) < MAX_OPS:
        index = rng.randrange(len(schedule))
        schedule.insert(index, schedule[index])
        return replace(case, schedule=tuple(schedule)), kind
    if kind == "tweak" and schedule:
        index = rng.randrange(len(schedule))
        schedule[index] = _sample_op(
            rng, {schedule[index][0]: 1})
        return replace(case, schedule=tuple(schedule)), kind
    if kind == "crash":
        fracs = list(case.crash_fracs)
        roll = rng.random()
        if roll < 0.3 and len(fracs) < MAX_FRACS:
            fracs.append(round(rng.random(), 4))
        elif roll < 0.5 and len(fracs) > 1:
            del fracs[rng.randrange(len(fracs))]
        else:
            fracs[rng.randrange(len(fracs))] = round(rng.random(), 4)
        return replace(case, crash_fracs=tuple(fracs)), kind
    if kind == "survivor":
        seed = 0 if case.survivor_seed and rng.random() < 0.3 \
            else rng.randrange(1, 1 << 16)
        return replace(case, survivor_seed=seed), kind
    if kind == "fault":
        plan = list(case.fault_plan)
        if plan and rng.random() < 0.4:
            del plan[rng.randrange(len(plan))]
        elif len(plan) < MAX_FAULTS:
            plan.append((FAULT_KINDS[rng.randrange(2)],
                         rng.randrange(_FAULT_INDEX_RANGE)))
        return replace(case, fault_plan=tuple(plan)), kind
    if kind == "splice" and pool:
        other = pool[rng.randrange(len(pool))]
        cut_a = rng.randrange(len(case.schedule) + 1)
        cut_b = rng.randrange(len(other.schedule) + 1)
        spliced = (case.schedule[:cut_a] + other.schedule[cut_b:])[:MAX_OPS]
        if spliced:
            return replace(case, schedule=spliced), kind
    return case, "noop"


def mutate(rng: random.Random, case: FuzzCase,
           pool: Sequence[FuzzCase]) -> Tuple[FuzzCase, List[str]]:
    """Apply 1–3 stacked mutation operators; returns the child and the
    operator names that actually fired (for ``fuzz.mutation.*``)."""
    used: List[str] = []
    child = case
    for _ in range(rng.randrange(1, 4)):
        child, kind = _mutate_once(rng, child, pool)
        if kind != "noop":
            used.append(kind)
    return child, used


# -- interpretation ---------------------------------------------------------


def build_fuzz_run(case: FuzzCase,
                   config: NvcacheConfig = SMALL_CONFIG) -> CrashWorkload:
    """Materialize a case as a
    :class:`~repro.faults.workloads.CrashWorkload`.

    The interpreter is *total*: every schedule is valid. File-slot
    references resolve modulo the open-file table; an op that needs an
    open file when none exists opens a fresh one first. The epilogue
    closes everything and drains the log so cleanup/block/ext4
    boundaries always appear in the crash-point stream. Only
    ``schedule`` and ``fault_plan`` matter here — crash selection and
    survivor seeds are applied by the executor, which is what lets one
    enumerated run serve many cases.

    ``config`` selects the stack the schedule is interpreted against
    (default: the logging-mode ``SMALL_CONFIG``). The schedule language
    is stack-agnostic, so the same case replays against any
    ``CACHE_MODES`` row by changing ``config.cache_mode`` — that is how
    ``tests/core/test_mode_equivalence.py`` pins the designs to
    byte-identical post-recovery contents.
    """

    def build() -> CrashRun:
        run = build_crash_run(config)
        if case.fault_plan:
            injector = BlockFaultInjector(
                seed=1,
                fail_writes=[index for kind, index in case.fault_plan
                             if kind == "fail"],
                tear_writes=[index for kind, index in case.fault_plan
                             if kind == "tear"])
            injector.arm(run.ssd)
            run.pre_reboot = lambda r: injector.disarm(r.ssd)
        return run

    def body(run: CrashRun) -> Generator:
        libc = run.libc
        table: List[List] = []   # [path, fd, size]
        serial = 0

        def fresh_path() -> str:
            nonlocal serial
            serial += 1
            return f"/fz{serial}"

        def open_fresh() -> Generator:
            path = fresh_path()
            fd = yield from libc.open(path, O_CREAT | O_RDWR)
            table.append([path, fd, 0])

        for op in case.schedule:
            if op[0] == "open":
                yield from open_fresh()
                continue
            if not table:
                yield from open_fresh()
            entry = table[op[1] % len(table)] if len(op) > 1 else table[0]
            kind = op[0]
            if kind == "pwrite":
                data = bytes([op[4]]) * SIZES[op[3]]
                offset = op[2] * 512
                yield from libc.pwrite(entry[1], data, offset)
                entry[2] = max(entry[2], offset + len(data))
            elif kind == "append":
                data = bytes([op[3]]) * SIZES[op[2]]
                yield from libc.pwrite(entry[1], data, entry[2])
                entry[2] += len(data)
            elif kind == "fsync":
                yield from libc.fsync(entry[1])
            elif kind == "ftruncate":
                yield from libc.ftruncate(entry[1], op[2])
                entry[2] = op[2]
            elif kind == "rename":
                yield from libc.close(entry[1])
                new = fresh_path()
                yield from libc.rename(entry[0], new)
                entry[0] = new
                entry[1] = yield from libc.open(new, O_RDWR)
            elif kind == "unlink":
                yield from libc.close(entry[1])
                yield from libc.unlink(entry[0])
                table.remove(entry)
            elif kind == "recreate":
                # close + unlink + reopen the same path: with entries
                # still in the log this is the recreate-over-pending-
                # removal path (OP_CREATE logging) in nvcache.open.
                yield from libc.close(entry[1])
                yield from libc.unlink(entry[0])
                entry[1] = yield from libc.open(entry[0], O_CREAT | O_RDWR)
                entry[2] = 0
            else:
                raise ValueError(f"unknown schedule op {op!r}")
        for entry in list(table):
            yield from libc.close(entry[1])
        yield run.nvcache.cleanup.request_drain()

    return CrashWorkload(build, body)
