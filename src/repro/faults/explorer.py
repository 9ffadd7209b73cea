"""The crash explorer: enumerate every persistence boundary, crash at
each one, recover, and check the durability contract.

Protocol (two passes per workload):

1. **Enumerate** — run the workload once with a recording
   :class:`~repro.faults.recorder.CrashPointRecorder` attached. The
   result is the ordered list of crash points the run passes through,
   each annotated with how many NVMM cache lines were dirty (at risk)
   at that instant.

2. **Explore** — for each selected point (all of them, or an
   evenly-spaced sample under a budget) and each cache-line drop
   variant, build a fresh machine and re-run the workload from ``t=0``
   with the recorder armed on that point's index. The trigger callback
   runs synchronously inside the hook: it captures the NVMM crash image
   (``crash_image(keep_lines=...)``; the kept subset is drawn from a
   seeded RNG over the dirty lines), the oracle's two legal states, and
   the in-flight op — then stops the environment. The machine is then
   "rebooted" (fresh environment, recovered NVMM image, surviving disk),
   ``core.recovery.recover`` runs, recovered file state is read back,
   recovery runs a *second* time (idempotence), and the invariant suite
   judges the case.

Determinism is the load-bearing property: workloads are seeded, the
simulation is deterministic, so hit N in the armed run is the exact
same machine state as hit N in the enumeration run. ``ExplorationError``
is raised if a trigger never fires — that means the workload was not
deterministic, which is a harness bug worth failing loudly on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import recover
from ..kernel import Kernel
from ..kernel.errno import ENOENT
from ..kernel.fd_table import O_RDONLY
from ..nvmm import NvmmDevice
from ..sim import Environment, Tracer
from .invariants import (CrashCase, DEFAULT_INVARIANTS, Violation, check_case)
from .recorder import CrashPoint, CrashPointRecorder
from .workloads import (CrashRun, CrashWorkload, ExplorationError,
                        run_workload)

END_OF_RUN_SITE = "end_of_run"


@dataclass
class CaseResult:
    """Outcome of one (crash point, drop subset) exploration."""

    point: CrashPoint
    variant: str
    keep_lines: Tuple[int, ...]
    violations: List[Violation]
    case: CrashCase

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class ExplorationResult:
    points: List[CrashPoint]
    selected: List[int]
    cases: List[CaseResult] = field(default_factory=list)

    @property
    def violations(self) -> List[Violation]:
        return [v for case in self.cases for v in case.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    def site_histogram(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for point in self.points:
            out[point.site] = out.get(point.site, 0) + 1
        return out

    def summary(self) -> str:
        lines = [f"crash points enumerated: {len(self.points)}",
                 f"points explored:         {len(self.selected)}",
                 f"cases run:               {len(self.cases)}",
                 f"violations:              {len(self.violations)}"]
        lines.append("points by site:")
        for site, count in sorted(self.site_histogram().items()):
            lines.append(f"  {site:28s} {count}")
        if self.violations:
            by_invariant: Dict[str, int] = {}
            for violation in self.violations:
                by_invariant[violation.invariant] = \
                    by_invariant.get(violation.invariant, 0) + 1
            lines.append("violations by invariant:")
            for name, count in sorted(by_invariant.items()):
                lines.append(f"  {name:28s} {count}")
        return "\n".join(lines)


class CrashExplorer:
    """Drives one workload through the enumerate/explore cycle.

    ``workload`` is a :class:`~repro.faults.workloads.CrashWorkload`;
    every pass builds a fresh machine from it. ``trace=True`` attaches a
    fresh :class:`repro.sim.trace.Tracer` to each (tracing never changes
    simulated results, so traced and untraced sweeps stay
    byte-identical).

    ``budget`` — max number of crash points to explore (None/0 =
    exhaustive). Under a budget, points are sampled evenly across the
    run so early, middle, and late boundaries are all covered.
    ``drop_subsets`` — per point with dirty NVMM lines, how many seeded
    random cache-line survivor subsets to explore on top of the
    drop-everything image. ``include_end_of_run`` adds a synthetic final
    point after workload completion (nothing in flight, log possibly
    non-empty).
    """

    def __init__(self, workload: CrashWorkload,
                 budget: Optional[int] = None, drop_subsets: int = 1,
                 seed: int = 0, invariants: Sequence = DEFAULT_INVARIANTS,
                 include_end_of_run: bool = True, trace: bool = False):
        self.workload = workload
        self.trace = trace
        self.budget = budget
        self.drop_subsets = drop_subsets
        self.seed = seed
        self.invariants = tuple(invariants)
        self.include_end_of_run = include_end_of_run
        self._points: Optional[List[CrashPoint]] = None
        self._end_dirty = 0

    def _build(self) -> CrashRun:
        run = self.workload.build()
        if self.trace:
            run.env.tracer = Tracer()
        return run

    # -- pass 1: enumeration ------------------------------------------------

    def enumerate_points(self) -> List[CrashPoint]:
        if self._points is not None:
            return self._points
        run = self._build()
        recorder = CrashPointRecorder(
            run.env, record=True,
            probe=lambda: {"dirty_lines": run.nvmm.dirty_line_count()})
        run_workload(run, self.workload)
        self._points = recorder.points
        self._end_dirty = run.nvmm.dirty_line_count()
        recorder.detach()
        return self._points

    def select_indices(self) -> List[int]:
        points = self.enumerate_points()
        total = len(points)
        if not self.budget or self.budget >= total:
            return list(range(total))
        if self.budget == 1:
            return [0]
        step = (total - 1) / (self.budget - 1)
        return sorted({round(i * step) for i in range(self.budget)})

    # -- pass 2: one case ---------------------------------------------------

    def run_case(self, index: Optional[int], variant: int = 0,
                 keep_lines: Optional[Sequence[int]] = None,
                 survivor_seed: Optional[int] = None) -> CaseResult:
        """Crash at point ``index`` (None = end of run), drop all dirty
        lines except ``keep_lines`` (or a seeded subset for
        ``variant > 0``), recover twice, check invariants.
        ``survivor_seed`` overrides the explorer-wide survivor-sampling
        seed for this one case — the fuzzer uses it to vary survivor
        subsets per case without building a new explorer (and without
        disturbing this explorer's cached enumeration)."""
        points = self.enumerate_points()
        run = self._build()
        captured: Dict[str, object] = {}

        def capture() -> None:
            dirty = run.nvmm.dirty_lines()
            if keep_lines is not None:
                keep: Tuple[int, ...] = tuple(sorted(keep_lines))
            elif variant > 0:
                seed = self.seed if survivor_seed is None else survivor_seed
                rng = random.Random(f"{seed}:{index}:{variant}")
                keep = tuple(line for line in dirty if rng.random() < 0.5)
            else:
                keep = ()
            captured["keep"] = keep
            captured["image"] = run.nvmm.crash_image(keep_lines=keep)
            before, after = run.oracle.expected_states()
            captured["before"] = before
            captured["after"] = after
            captured["inflight"] = run.oracle.inflight
            captured["ns_paths"] = run.oracle.namespace_paths()
            captured["paths"] = run.oracle.paths_of_interest()

        if index is None:
            recorder = CrashPointRecorder(run.env, record=False)
            run_workload(run, self.workload)
            point = CrashPoint(len(points), END_OF_RUN_SITE,
                               "workload completed", run.env.now,
                               run.nvmm.dirty_line_count())
            capture()
            recorder.detach()
        else:
            point = points[index]
            recorder = CrashPointRecorder(run.env, record=False)
            recorder.arm(index, capture)
            run_workload(run, self.workload, expect_completion=False)
            recorder.detach()
            if "image" not in captured:
                raise ExplorationError(
                    f"trigger on point #{index} never fired — workload "
                    "is not deterministic or completed early")

        variant_name = ("end-of-run" if index is None
                        else "drop-all" if not captured["keep"]
                        else f"keep-subset-{variant}")

        if run.pre_reboot is not None:
            run.pre_reboot(run)

        # Reboot 1: recover from the crash image.
        env2, kernel2, nvmm2, report = self._crash_and_recover(
            run.env, run.kernel, run.devices, run.config,
            run.nvmm.name, captured["image"])
        state = self._read_state(env2, kernel2, captured["paths"])

        # Reboot 2: recover again — must be a no-op.
        env3, kernel3, _nvmm3, report2 = self._crash_and_recover(
            env2, kernel2, run.devices, run.config,
            run.nvmm.name, nvmm2.crash_image())
        state2 = self._read_state(env3, kernel3, captured["paths"])

        case = CrashCase(
            point=point, variant=variant_name,
            keep_lines=tuple(captured["keep"]),
            before=captured["before"], after=captured["after"],
            inflight=captured["inflight"], ns_paths=captured["ns_paths"],
            state=state, state2=state2,
            applied=report.entries_applied,
            applied2=report2.entries_applied,
            ns_replayed2=(report2.namespace_ops_replayed
                          + report2.creates_replayed))
        violations = check_case(case, self.invariants)
        return CaseResult(point=point, variant=variant_name,
                          keep_lines=tuple(captured["keep"]),
                          violations=violations, case=case)

    # -- pass 2: the full sweep --------------------------------------------

    def case_plan(self) -> List[Tuple[Optional[int], int]]:
        """The ordered list of ``(point index, variant)`` cases a full
        sweep runs; ``(None, v)`` is the synthetic end-of-run point.

        Every case is an independent deterministic simulation, so the
        plan is the sharding unit for ``repro.parallel``: any partition
        of it, run anywhere, merges back into the exact
        :meth:`explore` result as long as plan order is restored.
        """
        points = self.enumerate_points()
        plan: List[Tuple[Optional[int], int]] = []
        for index in self.select_indices():
            plan.append((index, 0))
            if points[index].dirty_lines > 0:
                for variant in range(1, self.drop_subsets + 1):
                    plan.append((index, variant))
        if self.include_end_of_run:
            plan.append((None, 0))
            if self._end_dirty > 0:
                for variant in range(1, self.drop_subsets + 1):
                    plan.append((None, variant))
        return plan

    def result_shell(self) -> ExplorationResult:
        """An :class:`ExplorationResult` with points/selected filled in
        and no cases yet — what a sharded sweep merges case results
        into (``selected`` matches :meth:`explore` exactly, including
        the synthetic end-of-run index)."""
        points = self.enumerate_points()
        selected = self.select_indices()
        if self.include_end_of_run:
            selected.append(len(points))
        return ExplorationResult(points=points, selected=selected)

    def explore(self) -> ExplorationResult:
        result = self.result_shell()
        for index, variant in self.case_plan():
            result.cases.append(self.run_case(index, variant=variant))
        return result

    # -- shrinking ----------------------------------------------------------

    def minimize(self, failing: CaseResult) -> CaseResult:
        """Greedily shrink a failing case's survivor set: drop kept lines
        one at a time, keeping each removal that still fails. The result
        is a minimal reproducer (often ``keep=()``, the pure power cut)."""
        index = None if failing.point.site == END_OF_RUN_SITE \
            else failing.point.index
        keep = list(failing.keep_lines)
        best = failing
        changed = True
        while changed and keep:
            changed = False
            for line in list(keep):
                trial_keep = [k for k in keep if k != line]
                trial = self.run_case(index, keep_lines=trial_keep)
                if trial.violations:
                    keep = trial_keep
                    best = trial
                    changed = True
        return best

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _crash_and_recover(env: Environment, kernel, devices, config,
                           nvmm_name: str, image: bytearray):
        """Power-cut the machine and reboot: fresh environment, NVMM
        rebuilt from ``image``, block devices keep only durable data,
        filesystems remounted, then ``recover`` replays the log."""
        kernel.crash()
        for device in devices:
            device.crash()
        env2 = Environment()
        nvmm2 = NvmmDevice.from_image(env2, image, name=nvmm_name)
        for device in devices:
            device.reattach(env2)
        kernel2 = Kernel(env2)
        for mountpoint, fs in kernel.vfs._mounts:
            fs.env = env2
            kernel2.mount(mountpoint, fs)
        report = env2.run_process(recover(env2, kernel2, nvmm2, config))
        return env2, kernel2, nvmm2, report

    @staticmethod
    def _read_state(env: Environment, kernel, paths) -> Dict[str, Optional[bytes]]:
        """Post-recovery contents of every path of interest (None =
        absent), read through the rebooted kernel."""

        def body():
            out: Dict[str, Optional[bytes]] = {}
            for path in sorted(paths):
                try:
                    st = yield from kernel.stat(path)
                except OSError as exc:
                    if exc.errno != ENOENT:
                        raise
                    out[path] = None
                    continue
                fd = yield from kernel.open(path, O_RDONLY)
                data = yield from kernel.pread(fd, st.st_size, 0)
                yield from kernel.close(fd)
                out[path] = data
            return out

        return env.run_process(body())
