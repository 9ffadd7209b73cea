"""Running a crash workload: the one phase driver, and quiescent machine
snapshots so two-phase workloads resume from a checkpoint instead of
replaying their prefix.

The crash explorer needs a fresh machine for every (crash point, drop
subset) case, and re-running the workload from ``t=0`` each time makes
the prefix replay dominate a sweep once workloads grow. A two-phase
:class:`~repro.faults.workloads.PhasedWorkload` splits the workload at a
*quiescent checkpoint boundary*: phase A ends with the NVCache log
drained, the machine is **parked** (the cleanup thread's pending tick is
withdrawn, the kernel page cache shed), and at that instant nothing is
queued in the event loop — the entire machine (Environment clock and
sequence counter, NVMM media+overlay, log and cleanup state, file
tables, oracle, seeded RNG streams in ``run.scratch``) pickles into a
:class:`Checkpoint`. Warm cases restore the pickle and run only phase B.
A single-phase workload has no boundary: every run of it is a plain
cold run.

Byte-identity is by construction, not by luck: the *cold* path runs the
exact same park/restart protocol at the boundary (shed, cancelled tick,
fresh cleanup generator, fresh ``crash-workload`` process for phase B),
so every post-boundary event carries the same ``(time, seq)`` pair in
both modes — same crash-point stream, same clocks, same stats, same
sweep results whether sequential, sharded, warm, or cold
(``tests/faults/test_snapshot.py`` pins all four against each other,
including a restore in a fresh OS process).

Crash points hit during phase A exist only in the cold stream; a warm
run's recorder starts counting at ``Checkpoint.base_hits``. The explorer
arms warm runs at ``index - base_hits`` and asks for a cold run for
indices inside the prefix.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from functools import partial
from typing import Optional

from ..sim import Tracer
from .explorer import ExplorationError
from .recorder import CrashPointRecorder
from .workloads import CrashRun, PhasedWorkload


class SnapshotError(RuntimeError):
    """The machine could not be parked or restored faithfully."""


@dataclass(frozen=True)
class Checkpoint:
    """A parked machine, serialized, plus the stream position it holds.

    ``payload`` is a pickle of the :class:`~repro.faults.workloads.CrashRun`
    as ``build`` returned it plus phase A's effects (phase B comes from
    code, not from the snapshot, so a checkpoint written to disk
    restores in a fresh process). ``base_hits`` is how many crash points
    fired during phase A; ``now``/``sequence``/``events_dispatched``
    mirror the environment for cheap integrity checks and reporting.
    """

    payload: bytes
    base_hits: int
    now: float
    sequence: int
    events_dispatched: int

    def save(self, path: str) -> None:
        with open(path, "wb") as f:
            pickle.dump(self, f, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def load(path: str) -> "Checkpoint":
        with open(path, "rb") as f:
            checkpoint = pickle.load(f)
        if not isinstance(checkpoint, Checkpoint):
            raise SnapshotError(f"{path} does not contain a Checkpoint")
        return checkpoint


# -- the park protocol -----------------------------------------------------


def park(run: CrashRun) -> None:
    """Bring a drained machine to full quiescence: stop the cleanup
    thread between batches and withdraw its tick, shed the kernel page
    cache (its keys embed object identities that do not survive
    pickling). After this, ``env.pending_events()`` must be empty —
    both the snapshot and the cold run it mirrors go through here."""
    run.nvcache.cleanup.park()
    run.kernel.page_cache.shed()


def resume(run: CrashRun) -> None:
    """Undo :func:`park`: restart the cleanup thread with a fresh
    generator. Cold-after-park and warm-after-restore both come through
    here, consuming identical event sequence numbers."""
    run.nvcache.cleanup.start()


def take_checkpoint(phased: PhasedWorkload) -> Checkpoint:
    """Build the machine, run phase A to completion (counting crash
    points), park, and serialize."""
    run = phased.build()
    recorder = CrashPointRecorder(run.env, record=False)
    _run_phase(run, phased.phase_a, expect_completion=True)
    base_hits = recorder.count
    recorder.detach()
    park(run)
    pending = run.env.pending_events()
    if pending:
        raise SnapshotError(
            f"machine not quiescent after park: {len(pending)} pending "
            "event(s) — phase A must end with the log drained")
    payload = pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL)
    return Checkpoint(payload=payload, base_hits=base_hits,
                      now=run.env.now, sequence=run.env._sequence,
                      events_dispatched=run.env.events_dispatched)


def restore_run(checkpoint: Checkpoint) -> CrashRun:
    """Deserialize a parked machine. The environment comes back with the
    checkpoint's clock/sequence/dispatch count, empty queues, and no
    observability attached (recorders and tracers are per-run)."""
    run = pickle.loads(checkpoint.payload)
    env = run.env
    if (env.now, env._sequence, env.events_dispatched) != (
            checkpoint.now, checkpoint.sequence,
            checkpoint.events_dispatched):
        raise SnapshotError("restored environment does not match the "
                            "checkpoint's recorded clock/sequence state")
    return run


# -- driving ---------------------------------------------------------------


def _run_phase(run: CrashRun, phase, expect_completion: bool) -> bool:
    """Spawn one phase as the ``crash-workload`` process and run the
    environment until it completes — daemons (cleanup) keep the event
    queue non-empty forever, so completion is signalled by stopping the
    environment, and an armed recorder may stop it first. Returns True
    when the phase ran to completion."""
    process = run.env.spawn(phase(run), name="crash-workload")
    process.subscribe(lambda _value, _exc: run.env.stop())
    run.env.run()
    if process.exception is not None:
        raise ExplorationError("crash workload raised") from process.exception
    if process.alive:
        if expect_completion:
            raise ExplorationError("crash workload did not complete")
        return False
    return True


def _drive_cold(run: CrashRun, phased: PhasedWorkload,
                expect_completion: bool) -> bool:
    """Full run from ``t=0``: phase A and, when there is a phase B,
    park/restart at the boundary and B."""
    if not _run_phase(run, phased.phase_a, expect_completion):
        return False  # armed point struck inside phase A
    if phased.phase_b is None:
        return True
    park(run)
    return _drive_warm(run, phased, expect_completion)


def _drive_warm(run: CrashRun, phased: PhasedWorkload,
                expect_completion: bool) -> bool:
    """Resume a parked machine (freshly restored, or a cold run at its
    boundary — the two are indistinguishable by design) and run phase B."""
    resume(run)
    return _run_phase(run, phased.phase_b, expect_completion)


class WarmStartFactory:
    """The explorer's run source for one workload.

    ``factory()`` returns a run restored from the (lazily created,
    cached) checkpoint, with ``crash_point_base`` set so the explorer
    arms indices relative to the boundary; ``factory.cold_run()``
    returns a full from-scratch run for enumeration and for points
    inside the prefix. Each worker process pays checkpoint creation
    once. A single-phase workload has no checkpoint: ``base_hits`` is 0
    and ``factory()`` is ``factory.cold_run()``.

    ``trace=True`` attaches a fresh :class:`repro.sim.trace.Tracer` to
    every run handed out (tracing never changes simulated results, so
    traced and untraced sweeps stay byte-identical).
    """

    def __init__(self, phased: PhasedWorkload, trace: bool = False,
                 checkpoint: Optional[Checkpoint] = None):
        self.phased = phased
        self.trace = trace
        self._checkpoint = checkpoint

    def checkpoint(self) -> Optional[Checkpoint]:
        if self._checkpoint is None and self.phased.phase_b is not None:
            self._checkpoint = take_checkpoint(self.phased)
        return self._checkpoint

    @property
    def base_hits(self) -> int:
        checkpoint = self.checkpoint()
        return checkpoint.base_hits if checkpoint is not None else 0

    def _hand_out(self, run: CrashRun, drive) -> CrashRun:
        run.drive = partial(drive, run, self.phased)
        if self.trace:
            run.env.tracer = Tracer()
        return run

    def cold_run(self) -> CrashRun:
        return self._hand_out(self.phased.build(), _drive_cold)

    def __call__(self) -> CrashRun:
        checkpoint = self.checkpoint()
        if checkpoint is None:
            return self.cold_run()
        run = restore_run(checkpoint)
        run.crash_point_base = checkpoint.base_hits
        return self._hand_out(run, _drive_warm)
