"""Case execution: one FuzzCase in, one picklable outcome dict out.

``run_case_task`` is the worker entry point (mapped by name over each
batch by :class:`~repro.fuzz.FuzzEngine`, mirroring
``repro.parallel.crash.run_shard``): it rebuilds the case, enumerates
its crash-point stream once, maps the case's crash fractions onto
concrete point indices, runs each armed crash + double recovery under
the coverage collector, and returns edges + invariant violations as
primitives. Each process keeps the explorer of its 32 most recent
*(schedule, fault plan)* pairs, so the many cases that only move the
crash point or reshuffle survivors pay the enumeration pass once.

The traced scope (``repro.core`` + ``repro.fs``) is imported eagerly
below: first-touch module imports must never happen inside a capture
window, or a worker's first case would see import-time lines that the
same case, run later, would not — and jobs=1 vs jobs=4 campaigns would
stop merging byte-identically.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Tuple

# Eager-import the whole coverage scope (see module docstring).
from ..core import (cleanup, config, files, log, nvcache,  # noqa: F401
                    read_cache, recovery, stats)
from ..fs import (base, dm_writecache, ext4, ext4_dax, nova,  # noqa: F401
                  tmpfs)
from ..faults.explorer import CrashExplorer, ExplorationError
from ..sim.core import SimulationError
from .coverage import CoverageCollector
from .schedule import FuzzCase, build_fuzz_run

_COLLECTOR: CoverageCollector = None


def collector() -> CoverageCollector:
    """The process-wide coverage collector (created on first use)."""
    global _COLLECTOR
    if _COLLECTOR is None:
        _COLLECTOR = CoverageCollector()
    return _COLLECTOR


@functools.lru_cache(maxsize=32)
def _explorer_for(schedule: Tuple[Tuple, ...],
                  fault_plan: Tuple[Tuple, ...]) -> CrashExplorer:
    """The explorer of one simulated run. Crash selection and survivor
    seed do not change the run, so they are not part of the key; a
    campaign's stream of schedules is unbounded, hence the cap."""
    return CrashExplorer(
        build_fuzz_run(FuzzCase(schedule, fault_plan=fault_plan)),
        drop_subsets=0, include_end_of_run=False)


def crash_indices(case: FuzzCase, total_points: int) -> List[int]:
    """Map the case's crash fractions onto concrete point indices
    (deduplicated, ascending)."""
    if total_points <= 0:
        return []
    return sorted({min(int(frac * total_points), total_points - 1)
                   for frac in case.crash_fracs})


def run_case_task(fields: Dict) -> Dict:
    """Execute one case; returns a picklable outcome::

        {"digest": str, "points": int, "edges": [str, ...],
         "violations": [{invariant, message, site, label, point,
                         variant}, ...],
         "error": str | None}

    ``edges`` unions line coverage from every armed run with synthetic
    ``site:<name>`` edges for every *enumerated* crash site, so merely
    reaching a new persistence boundary counts as coverage. Harness
    failures (non-deterministic schedule, workload exception) come back
    as ``error`` — they are campaign accounting, never findings.
    """
    case = FuzzCase.from_fields(fields)
    outcome: Dict = {"digest": case.digest(), "points": 0, "edges": [],
                     "violations": [], "error": None}
    edges = set()
    try:
        explorer = _explorer_for(case.schedule, case.fault_plan)
        points = explorer.enumerate_points()
        outcome["points"] = len(points)
        edges.update(f"site:{point.site}" for point in points)
        variant = 1 if case.survivor_seed else 0
        for index in crash_indices(case, len(points)):
            with collector().capture() as capture:
                result = explorer.run_case(
                    index, variant=variant,
                    survivor_seed=case.survivor_seed)
            edges.update(capture.edges)
            for violation in result.violations:
                outcome["violations"].append({
                    "invariant": violation.invariant,
                    "message": violation.message,
                    "site": result.point.site,
                    "label": result.point.label,
                    "point": result.point.index,
                    "variant": result.variant,
                })
    except (ExplorationError, SimulationError) as exc:
        outcome["error"] = f"{type(exc).__name__}: {exc}"
    outcome["edges"] = sorted(edges)
    return outcome


def reproduces(outcome: Dict, invariant: str) -> bool:
    """Did this outcome trip the given invariant? (The minimizer's
    acceptance test: sites may drift as ops are removed, the violated
    invariant must not.)"""
    return any(violation["invariant"] == invariant
               for violation in outcome["violations"])
