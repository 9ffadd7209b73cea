"""Multi-process work sharding for the repo's validation surfaces.

The heavyweight validation workloads — crash-point sweeps
(``repro.faults``), fuzz batches and CI steps — are all
*embarrassingly parallel*: every cell is an independent deterministic
simulation. This package splits them across worker
processes with the three properties CI needs:

- **bounded failure** — per-call timeouts, hung/killed workers are
  terminated and the call retried a bounded number of times, and a call
  that keeps dying is *reported*, never silently dropped;
- **graceful degradation** — at ``jobs=1``, or if the host cannot start
  a process pool, every call runs in-process with the same results and
  exit codes;
- **deterministic merge** — outcomes are ordered by argument position,
  never by arrival, so a merged report is byte-identical regardless of
  worker count or scheduling.

Layout: :mod:`~repro.parallel.engine` is the generic shard engine
(stdlib ``multiprocessing`` only); every fan-out goes through its one
API, :meth:`~repro.parallel.engine.ShardEngine.map` (one worker
reference over a list of argument tuples, outcomes in position order,
one ``CELL_TIMEOUT``), and sweeps that a hole voids raise through
:func:`~repro.parallel.engine.raise_unfinished`.
:mod:`~repro.parallel.crash` shards crash-point sweeps and seed
matrices over it; ``repro.fuzz`` maps its case batches itself;
:mod:`~repro.parallel.procs` is the subprocess-command worker
``tools/ci_run.py`` drives suites with.
Engine health surfaces as ``parallel.engine.*`` metrics
(docs/OBSERVABILITY.md) when a :class:`~repro.obs.MetricsRegistry` is
passed in.
"""

from .engine import (CELL_TIMEOUT, ShardEngine, TaskResult, raise_unfinished,
                     register_engine_metrics)
from .crash import SweepSpec, cached_explorer, parallel_explore, seed_matrix

__all__ = [
    "CELL_TIMEOUT",
    "ShardEngine",
    "SweepSpec",
    "TaskResult",
    "cached_explorer",
    "parallel_explore",
    "raise_unfinished",
    "register_engine_metrics",
    "seed_matrix",
]
