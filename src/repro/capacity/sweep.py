"""Grid sweeps sharded over :mod:`repro.parallel`, byte-identically.

:func:`run_grid` fans one :func:`repro.capacity.cell.run_cell` task per
cell out to the shard engine and merges results in cell order, so a
``--jobs 4`` sweep is byte-identical to a sequential one (pinned by
``tests/capacity/test_determinism.py`` and the ``capacity`` CI suite).
Cells that die (worker timeout/crash) or raise surface as
``{"cell_id": ..., "error": ...}`` records in position, never silently
dropped — a capacity map with a hole must say where the hole is.

Self-metrics (``capacity.sweep.*``, docs/CAPACITY.md) are registered on
the caller's registry when one is passed; they describe the sweep
itself (cells planned/completed/failed), not any single simulated
stack.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..parallel import ShardEngine
from .grid import GridSpec


class SweepMetrics:
    """The ``capacity.sweep.*`` surface (registered once per registry)."""

    def __init__(self, registry):
        m = registry.scope("capacity.sweep")
        self.cells_planned = m.gauge(
            "cells_planned", unit="cells",
            help="cells in the most recently planned grid")
        self.cells_completed = m.counter(
            "cells_completed", unit="cells",
            help="cells captured successfully across sweeps")
        self.cells_failed = m.counter(
            "cells_failed", unit="cells",
            help="cells that errored, timed out, or crashed")
        self.knees_found = m.counter(
            "knees_found", unit="flips",
            help="dominant-segment flips reported by knee detection")
        self.diffs_rendered = m.counter(
            "diffs_rendered", unit="diffs",
            help="attribution diffs computed by the diff engine")


def register_sweep_metrics(registry) -> SweepMetrics:
    """Create (or fail loudly on re-registration of) the sweep's
    metric surface; `tools/check_docs.py` registers it this way."""
    return SweepMetrics(registry)


def run_grid(spec: GridSpec, jobs: int = 1,
             registry=None,
             metrics: Optional[SweepMetrics] = None) -> List[Dict]:
    """Run every cell of ``spec``; results ordered by cell position.

    ``jobs > 1`` shards cells over worker processes; the merged list is
    byte-identical to ``jobs=1``. ``registry``/``metrics`` attach the
    ``capacity.sweep.*`` self-metrics."""
    if metrics is None and registry is not None:
        metrics = SweepMetrics(registry)
    cells = list(spec.cells())
    if metrics is not None:
        metrics.cells_planned.set(len(cells))
    outcomes = ShardEngine(jobs=jobs).map(
        "repro.capacity.cell:run_cell", [(params,) for params in cells])
    results: List[Dict] = []
    for params, outcome in zip(cells, outcomes):
        if outcome.ok:
            results.append(outcome.value)
            if metrics is not None:
                metrics.cells_completed.inc()
        else:
            results.append({"cell_id": params["cell_id"],
                            "params": {key: value for key, value
                                       in sorted(params.items())
                                       if key != "cell_id"},
                            "error": outcome.error})
            if metrics is not None:
                metrics.cells_failed.inc()
    return results
