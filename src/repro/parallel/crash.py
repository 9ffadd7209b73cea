"""Sharded crash-point sweeps and seed matrices.

A crash sweep is a list of independent ``(point index, variant)`` cases
(:meth:`repro.faults.CrashExplorer.case_plan`); each case builds a fresh
simulated machine from a seeded workload, so any case can run in any
process. This module cuts the plan into contiguous shards, runs
each shard through :class:`~repro.parallel.engine.ShardEngine`, and
merges the per-case results back *in plan order* — the merged
:class:`~repro.faults.explorer.ExplorationResult` is equal field-for-
field to what a sequential :meth:`~repro.faults.CrashExplorer.explore`
produces, so every report derived from it is byte-identical regardless
of worker count.

Workloads are named (keys of :data:`repro.faults.workloads.WORKLOADS`),
never passed as callables: a :class:`SweepSpec` is a handful of
primitives, which is what makes shards picklable and replayable after a
worker death. Each worker process keeps one explorer per spec so the
enumeration pass is paid once per worker, not once per shard.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults.explorer import (CaseResult, CrashExplorer, ExplorationError,
                               ExplorationResult)
from ..faults.workloads import WORKLOADS
from ..cli import by_invariant
from .engine import CELL_TIMEOUT, ShardEngine, chunked, raise_unfinished

#: Shards per worker slot: small shards amortize pool startup while
#: keeping tail latency low (a straggler shard idles at most one slot
#: for 1/SHARDS_PER_JOB of the sweep).
SHARDS_PER_JOB = 4


@dataclass(frozen=True)
class SweepSpec:
    """Everything needed to rebuild one crash sweep in any process."""

    workload: str
    ops: Optional[int] = None
    budget: Optional[int] = None
    subsets: int = 1
    seed: int = 0
    #: Attach a Tracer to every rebuilt run. Tracing is guaranteed not
    #: to change simulated results, so traced and untraced sweeps (and
    #: sequential vs. sharded traced sweeps) produce identical reports.
    trace: bool = False

    def __post_init__(self):
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown crash workload {self.workload!r} "
                             f"(have: {', '.join(sorted(WORKLOADS))})")


def make_explorer(spec: SweepSpec) -> CrashExplorer:
    maker = WORKLOADS[spec.workload]
    workload = maker() if spec.ops is None else maker(spec.ops)
    return CrashExplorer(workload, budget=spec.budget,
                         drop_subsets=spec.subsets, seed=spec.seed,
                         trace=spec.trace)


#: Per-worker-process explorer cache (spec -> explorer with its
#: enumeration pass already done). Lives in module state on purpose:
#: worker processes are long-lived and re-enumeration is the dominant
#: per-shard overhead.
_EXPLORERS: Dict[SweepSpec, CrashExplorer] = {}


def _cached_explorer(spec: SweepSpec) -> CrashExplorer:
    explorer = _EXPLORERS.get(spec)
    if explorer is None:
        explorer = _EXPLORERS[spec] = make_explorer(spec)
        explorer.enumerate_points()
    return explorer


def run_shard(spec_fields: Dict,
              cases: Sequence[Tuple[Optional[int], int]]) -> List[CaseResult]:
    """Worker entry point: run one contiguous slice of the case plan."""
    explorer = _cached_explorer(SweepSpec(**spec_fields))
    return [explorer.run_case(index, variant=variant)
            for index, variant in cases]


def parallel_explore(spec: SweepSpec, jobs: Optional[int] = None,
                     registry=None, engine: Optional[ShardEngine] = None,
                     shard_timeout: float = CELL_TIMEOUT,
                     explorer: Optional[CrashExplorer] = None
                     ) -> ExplorationResult:
    """Run the sweep described by ``spec`` across ``jobs`` processes.

    ``jobs <= 1`` (or a host that cannot fork) degrades to the plain
    sequential :meth:`~repro.faults.CrashExplorer.explore`, so callers
    get one code path with identical results either way. A shard that
    still fails after the engine's bounded retries raises
    :class:`~repro.faults.ExplorationError` — a crash sweep with holes
    in it proves nothing, so partial reports are never merged.
    """
    if explorer is None:
        explorer = make_explorer(spec)
    if engine is None:
        engine = ShardEngine(jobs=jobs, registry=registry)
    plan = explorer.case_plan()
    if engine.jobs <= 1 or not plan:
        engine.mode = "sequential"
        return explorer.explore()
    spec_fields = asdict(spec)
    shards = chunked(plan, engine.jobs * SHARDS_PER_JOB)
    outcomes = engine.map("repro.parallel.crash:run_shard",
                          [(spec_fields, shard) for shard in shards],
                          timeout=shard_timeout)
    raise_unfinished(outcomes, "shard", ExplorationError)
    result = explorer.result_shell()
    for outcome in outcomes:  # sorted by shard index == plan order
        result.cases.extend(outcome.value)
    return result


# -- seed matrices ---------------------------------------------------------


def run_seed_cell(spec_fields: Dict) -> Dict:
    """Worker entry point: one full (budgeted) sweep, summarized to the
    picklable fields the matrix report prints."""
    spec = SweepSpec(**spec_fields)
    result = make_explorer(spec).explore()
    return {
        "workload": spec.workload,
        "seed": spec.seed,
        "points": len(result.points),
        "explored": len(result.selected),
        "cases": len(result.cases),
        "violations": len(result.violations),
        "by_invariant": by_invariant(result.violations),
    }


def seed_matrix(spec: SweepSpec, seeds: Sequence[int],
                jobs: Optional[int] = None, registry=None,
                engine: Optional[ShardEngine] = None) -> List[Dict]:
    """Run the same sweep under each survivor-sampling seed, one cell
    per seed, merged in seed order. The cell summaries are deterministic
    (no wall-clock fields), so the matrix report is byte-stable too."""
    if engine is None:
        engine = ShardEngine(jobs=jobs, registry=registry)
    seeds = sorted(set(seeds))
    outcomes = engine.map("repro.parallel.crash:run_seed_cell",
                          [(asdict(replace(spec, seed=seed)),)
                           for seed in seeds])
    raise_unfinished(outcomes, "seed cell", ExplorationError, labels=seeds)
    return [outcome.value for outcome in outcomes]
