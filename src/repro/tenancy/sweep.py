"""Seed sweeps of the traffic engine, sharded over :mod:`repro.parallel`.

One *cell* = one fully deterministic engine run (tenant mix, schedule,
seed). :func:`run_cell` is the module-level worker the shard engine
resolves by dotted name inside worker processes; :func:`sweep_seeds`
fans cells out and merges results in seed order, so a sharded sweep is
byte-identical to a sequential one (``tests/tenancy/test_sweep.py`` and
the ``tenancy`` CI suite pin this).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from ..parallel import ShardEngine
from .clients import make_mix
from .engine import TrafficEngine
from .schedule import make_schedule


def run_cell(params: Dict) -> Dict:
    """Run one engine cell described by a plain-data ``params`` dict
    (keys: seed, tenants, operations, workers, schedule, duration,
    quota_entries, qos, stack). Returns a JSON-safe summary whose
    ``digest`` covers the full fairness report."""
    seed = int(params.get("seed", 0))
    specs = make_mix(int(params.get("tenants", 64)), seed=seed,
                     operations=int(params.get("operations", 8)),
                     quota_entries=params.get("quota_entries"))
    engine = TrafficEngine(
        specs,
        workers=int(params.get("workers", 16)),
        seed=seed,
        schedule=make_schedule(params.get("schedule", "bursty"),
                               duration=float(params.get("duration", 0.5))),
        stack_name=params.get("stack", "nvcache+ssd"),
        qos=bool(params.get("qos", True)),
    )
    report = engine.run()
    digest = report.digest()
    return {
        "seed": seed,
        "clock": report.clock,
        "jain": report.jain,
        "starvation": report.starvation,
        "requests": report.engine["requests"],
        "completed": report.engine["completed"],
        "classes": report.classes,
        "digest": hashlib.sha256(digest.encode("utf-8")).hexdigest(),
    }


def sweep_seeds(seeds: List[int], jobs: int = 1,
                params: Optional[Dict] = None,
                registry=None) -> List[Dict]:
    """Run one cell per seed, ``jobs``-wide; results ordered by seed
    regardless of worker scheduling. Cells that die (timeout/crash)
    surface as ``{"seed": ..., "error": ...}`` records, never silently
    dropped."""
    seeds = sorted({int(seed) for seed in seeds})
    outcomes = ShardEngine(jobs=jobs, registry=registry).map(
        "repro.tenancy.sweep:run_cell",
        [({**(params or {}), "seed": seed},) for seed in seeds])
    return [outcome.value if outcome.ok
            else {"seed": seed, "error": outcome.error}
            for seed, outcome in zip(seeds, outcomes)]
