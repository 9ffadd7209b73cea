"""Multi-process work sharding for the repo's validation surfaces.

The heavyweight validation workloads — crash-point sweeps
(``repro.faults``), fuzz batches and CI steps — are all
*embarrassingly parallel*: every cell is an independent deterministic
simulation. This package splits them across worker
processes with the three properties CI needs:

- **bounded failure** — per-task timeouts, hung/killed workers are
  terminated and the task retried a bounded number of times, and a task
  that keeps dying is *reported*, never silently dropped;
- **graceful degradation** — if the host cannot start a process pool
  (or ``jobs <= 1``), everything runs sequentially in-process with the
  same results and exit codes;
- **deterministic merge** — results are ordered by task key, never by
  arrival, so a merged report is byte-identical regardless of worker
  count or scheduling.

Layout: :mod:`~repro.parallel.engine` is the generic shard engine
(stdlib ``multiprocessing`` only); every sweep fans out through its
:meth:`~repro.parallel.engine.ShardEngine.map` (one worker reference
over a list of argument tuples, outcomes in position order, one
``CELL_TIMEOUT``) and sweeps that a hole voids raise through
:func:`~repro.parallel.engine.raise_unfinished`.
:mod:`~repro.parallel.crash` shards crash-point sweeps and seed
matrices over it, :mod:`~repro.parallel.fuzz` fuzz batches;
:mod:`~repro.parallel.procs` is the subprocess-command worker
``tools/ci_run.py`` drives suites with.
Engine health surfaces as ``parallel.engine.*`` metrics
(docs/OBSERVABILITY.md) when a :class:`~repro.obs.MetricsRegistry` is
passed in.
"""

from .engine import (CELL_TIMEOUT, PoolUnavailable, ShardEngine, Task,
                     TaskResult, raise_unfinished, register_engine_metrics)
from .crash import SweepSpec, make_explorer, parallel_explore, seed_matrix
from .fuzz import FuzzShardError, evaluate_batch

__all__ = [
    "CELL_TIMEOUT",
    "FuzzShardError",
    "PoolUnavailable",
    "ShardEngine",
    "SweepSpec",
    "Task",
    "TaskResult",
    "evaluate_batch",
    "make_explorer",
    "parallel_explore",
    "raise_unfinished",
    "register_engine_metrics",
    "seed_matrix",
]
