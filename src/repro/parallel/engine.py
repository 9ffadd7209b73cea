"""The generic multi-process shard engine.

A *task* names a worker function by dotted path (``pkg.module:func``)
plus picklable arguments and a sortable key. The engine runs tasks on a
pool of long-lived worker processes connected by pipes, enforcing three
contracts the validation sweeps rely on:

- **per-task timeout** — a worker that exceeds its task's deadline is
  terminated (the simulation may be wedged; there is no safe in-process
  interrupt) and a fresh worker takes its place;
- **bounded retry** — a task whose worker died or timed out is retried
  up to ``max_attempts`` times, then recorded as ``timeout``/``crashed``
  rather than raised, so one poisoned shard cannot sink a sweep. A task
  that raises a *Python exception* is recorded as ``failed`` without
  retry — exceptions are deterministic and retrying them wastes a slot;
- **deterministic merge** — :meth:`ShardEngine.run` returns results
  sorted by task key, never by completion order.

If the pool cannot be started at all (``jobs <= 1``, fork/spawn refused
by the host, or ``force_sequential``) the engine degrades to an
in-process sequential loop with identical result records and statuses —
except that timeouts cannot be enforced without process isolation, so
sequential tasks run to completion. Callers that need the exit-code
semantics (``tools/ci_run.py``) get them unchanged either way.

Worker functions must be importable top-level callables; arguments and
return values must pickle. Closures are out — that is what keeps tasks
replayable across worker deaths and start methods.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Dict, List, Optional, Sequence, Tuple

#: Task terminal statuses.
DONE = "done"          # worker returned a value
FAILED = "failed"      # worker raised a Python exception (not retried)
TIMEOUT = "timeout"    # exceeded its deadline on every attempt
CRASHED = "crashed"    # worker process died on every attempt

#: Deadline (seconds) of one mapped cell in parallel mode, shared by
#: every sweep: demo-scale cells run in ~1 s, so a cell pinned for
#: minutes is wedged, not slow.
CELL_TIMEOUT = 600.0

#: How long the dispatcher sleeps in ``connection.wait`` when no
#: deadline is nearer (seconds). Small enough to notice dead workers
#: promptly, large enough not to spin.
_POLL_INTERVAL = 0.05


class PoolUnavailable(RuntimeError):
    """The host refused to start worker processes (used internally to
    trigger the sequential fallback; surfaces only via ``mode``)."""


@dataclass(frozen=True)
class Task:
    """One unit of shardable work.

    ``key`` orders the merged results and must be unique within a run;
    ``fn`` is a ``module.path:callable`` dotted reference resolved inside
    the worker; ``timeout`` (seconds) bounds one attempt in parallel
    mode.
    """

    key: Tuple
    fn: str
    args: Tuple = ()
    kwargs: Optional[Dict] = None
    timeout: Optional[float] = None


@dataclass
class TaskResult:
    """Terminal outcome of one task (one record per task, always)."""

    key: Tuple
    status: str                      # done | failed | timeout | crashed
    value: object = None
    error: str = ""
    attempts: int = 1
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == DONE


def resolve_worker(fn: str):
    """``pkg.module:callable`` -> the callable (import on demand)."""
    module_name, sep, attr = fn.partition(":")
    if not sep or not module_name or not attr:
        raise ValueError(f"worker reference {fn!r} is not 'module:callable'")
    return getattr(importlib.import_module(module_name), attr)


def _worker_main(conn) -> None:
    """Worker process loop: receive a task, run it, send the outcome.

    Runs until the pipe closes or a ``None`` sentinel arrives. Any
    exception — including an unpicklable return value — is reported as
    an error tuple rather than killing the worker.
    """
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        started = time.perf_counter()
        try:
            value = resolve_worker(task.fn)(*task.args, **(task.kwargs or {}))
            message = (task.key, DONE, value, "")
        except BaseException:
            message = (task.key, FAILED, None, traceback.format_exc())
        wall = time.perf_counter() - started
        try:
            conn.send(message + (wall,))
        except Exception:
            # The value would not pickle; report that instead of dying.
            conn.send((task.key, FAILED, None,
                       f"result of task {task.key!r} is not picklable", wall))


METRIC_SPECS = (
    ("counter", "parallel.engine.tasks_dispatched", "tasks",
     "task attempts handed to a worker (retries count again)"),
    ("counter", "parallel.engine.tasks_completed", "tasks",
     "tasks that returned a value"),
    ("counter", "parallel.engine.tasks_failed", "tasks",
     "tasks whose worker raised a Python exception"),
    ("counter", "parallel.engine.tasks_retried", "tasks",
     "re-dispatches after a worker death or timeout"),
    ("counter", "parallel.engine.tasks_timed_out", "tasks",
     "tasks terminated for exceeding their deadline (terminal)"),
    ("counter", "parallel.engine.worker_crashes", "workers",
     "worker processes that died mid-task"),
    ("counter", "parallel.engine.workers_spawned", "workers",
     "worker processes started, including replacements"),
    ("counter", "parallel.engine.sequential_fallbacks", "runs",
     "runs degraded to in-process sequential execution"),
    ("gauge", "parallel.engine.jobs", "workers",
     "worker slots of the most recent run"),
    ("histogram", "parallel.engine.shard_wall_seconds", "s",
     "host wall-clock per completed shard"),
)


def register_engine_metrics(registry) -> Dict[str, object]:
    """Create (or re-use) the ``parallel.engine.*`` metrics on
    ``registry``. Idempotent: several engines sharing one registry share
    one set of metrics — the registry itself rejects double registration,
    so re-use goes through ``registry.get``."""
    metrics: Dict[str, object] = {}
    for kind, name, unit, help_text in METRIC_SPECS:
        metric = registry.get(name)
        if metric is None:
            metric = getattr(registry, kind)(name, unit=unit, help=help_text)
        metrics[name] = metric
    return metrics


class _Null:
    """Metric stand-in when no registry is attached."""

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


@dataclass
class _Worker:
    process: multiprocessing.Process
    conn: object
    task: Optional[Task] = None
    attempt: int = 0
    deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.task is not None


@dataclass
class _Pending:
    task: Task
    attempt: int = 1


class ShardEngine:
    """Runs a batch of :class:`Task` over ``jobs`` worker processes.

    ``jobs=None`` means ``os.cpu_count()``. ``max_attempts`` bounds how
    often one task is dispatched after worker deaths/timeouts.
    ``registry`` (a :class:`repro.obs.MetricsRegistry`) enables the
    ``parallel.engine.*`` metrics. ``force_sequential`` skips the pool
    entirely — the degradation path, callable on purpose.
    """

    def __init__(self, jobs: Optional[int] = None, max_attempts: int = 2,
                 registry=None, force_sequential: bool = False,
                 start_method: Optional[str] = None):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.max_attempts = max_attempts
        self.force_sequential = force_sequential
        self.mode: str = "unset"   # "parallel" | "sequential" after run()
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = multiprocessing.get_context(start_method)
        if registry is not None:
            self._metrics = register_engine_metrics(registry)
        else:
            null = _Null()
            self._metrics = {name: null for _, name, _, _ in METRIC_SPECS}

    # -- public -------------------------------------------------------------

    def run(self, tasks: Sequence[Task]) -> List[TaskResult]:
        """Run every task to a terminal status; results sorted by key."""
        tasks = list(tasks)
        keys = [task.key for task in tasks]
        if len(set(keys)) != len(keys):
            raise ValueError("task keys must be unique within a run")
        self._metrics["parallel.engine.jobs"].set(self.jobs)
        if not tasks:
            self.mode = "sequential"
            return []
        if self.jobs <= 1 or self.force_sequential:
            return self._run_sequential(tasks)
        try:
            results = self._run_parallel(tasks)
        except PoolUnavailable:
            self._metrics["parallel.engine.sequential_fallbacks"].inc()
            return self._run_sequential(tasks)
        return results

    def map(self, fn: str, arg_tuples: Sequence[Tuple],
            timeout: Optional[float] = CELL_TIMEOUT) -> List[TaskResult]:
        """Run worker ``fn`` once per argument tuple; outcome ``i``
        belongs to ``arg_tuples[i]`` whatever order workers finish in."""
        return self.run([Task(key=(position,), fn=fn, args=tuple(args),
                              timeout=timeout)
                         for position, args in enumerate(arg_tuples)])

    # -- sequential fallback ------------------------------------------------

    def _run_sequential(self, tasks: Sequence[Task]) -> List[TaskResult]:
        self.mode = "sequential"
        results = []
        for task in tasks:
            self._metrics["parallel.engine.tasks_dispatched"].inc()
            started = time.perf_counter()
            try:
                value = resolve_worker(task.fn)(*task.args,
                                                **(task.kwargs or {}))
                result = TaskResult(task.key, DONE, value=value)
                self._metrics["parallel.engine.tasks_completed"].inc()
            except Exception:
                result = TaskResult(task.key, FAILED,
                                    error=traceback.format_exc())
                self._metrics["parallel.engine.tasks_failed"].inc()
            result.wall_seconds = time.perf_counter() - started
            self._metrics["parallel.engine.shard_wall_seconds"].observe(
                result.wall_seconds)
            results.append(result)
        return sorted(results, key=lambda r: r.key)

    # -- parallel path ------------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        try:
            process = self._ctx.Process(target=_worker_main,
                                        args=(child_conn,), daemon=True)
            process.start()
        except (OSError, ValueError) as exc:
            parent_conn.close()
            child_conn.close()
            raise PoolUnavailable(f"cannot start worker process: {exc}")
        child_conn.close()
        self._metrics["parallel.engine.workers_spawned"].inc()
        return _Worker(process=process, conn=parent_conn)

    def _assign(self, worker: _Worker, pending: _Pending) -> None:
        worker.task = pending.task
        worker.attempt = pending.attempt
        worker.deadline = (time.monotonic() + pending.task.timeout
                           if pending.task.timeout else None)
        self._metrics["parallel.engine.tasks_dispatched"].inc()
        worker.conn.send(pending.task)

    def _retry_or_record(self, worker: _Worker, status: str, error: str,
                         queue: List[_Pending],
                         results: Dict[Tuple, TaskResult]) -> None:
        """A worker died or blew its deadline mid-task: either requeue
        the task or record its terminal status."""
        task, attempt = worker.task, worker.attempt
        worker.task = None
        worker.deadline = None
        if attempt < self.max_attempts:
            self._metrics["parallel.engine.tasks_retried"].inc()
            queue.append(_Pending(task, attempt + 1))
            return
        if status == TIMEOUT:
            self._metrics["parallel.engine.tasks_timed_out"].inc()
        else:
            self._metrics["parallel.engine.tasks_failed"].inc()
        results[task.key] = TaskResult(task.key, status, error=error,
                                       attempts=attempt)

    def _kill(self, worker: _Worker) -> None:
        worker.conn.close()
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():  # pragma: no cover - last resort
            worker.process.kill()
            worker.process.join(timeout=5.0)

    def _run_parallel(self, tasks: Sequence[Task]) -> List[TaskResult]:
        queue: List[_Pending] = [_Pending(task) for task in tasks]
        results: Dict[Tuple, TaskResult] = {}
        workers: List[_Worker] = []
        total = len(tasks)
        # The first worker failing to start means no pool at all ->
        # PoolUnavailable propagates and run() falls back. Later spawn
        # failures just shrink the pool.
        workers.append(self._spawn_worker())
        self.mode = "parallel"
        try:
            for _ in range(min(self.jobs, total) - 1):
                try:
                    workers.append(self._spawn_worker())
                except PoolUnavailable:
                    break
            while len(results) < total:
                for worker in workers:
                    if (not worker.busy and queue
                            and worker.process.is_alive()):
                        self._assign(worker, queue.pop(0))
                busy = [w for w in workers if w.busy]
                if not busy:
                    if queue:  # every worker died; respawn or bail
                        workers = [w for w in workers if w.process.is_alive()]
                        if not workers:
                            workers.append(self._spawn_worker())
                        continue
                    break  # nothing busy, nothing queued: all terminal
                timeout = _POLL_INTERVAL
                now = time.monotonic()
                for worker in busy:
                    if worker.deadline is not None:
                        timeout = min(timeout, max(worker.deadline - now, 0.0))
                ready = _connection_wait([w.conn for w in busy],
                                         timeout=timeout)
                for worker in busy:
                    if worker.conn in ready:
                        self._collect(worker, results)
                now = time.monotonic()
                for index, worker in enumerate(workers):
                    if not worker.busy:
                        continue
                    if worker.deadline is not None and now > worker.deadline:
                        self._kill(worker)
                        self._retry_or_record(
                            worker, TIMEOUT,
                            f"exceeded {worker.task.timeout}s deadline",
                            queue, results)
                        workers[index] = self._replace(worker)
                    elif not worker.process.is_alive():
                        self._metrics["parallel.engine.worker_crashes"].inc()
                        exitcode = worker.process.exitcode
                        self._kill(worker)
                        self._retry_or_record(
                            worker, CRASHED,
                            f"worker died (exit code {exitcode})",
                            queue, results)
                        workers[index] = self._replace(worker)
        finally:
            for worker in workers:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
                self._kill(worker)
        return sorted(results.values(), key=lambda r: r.key)

    def _replace(self, dead: _Worker) -> _Worker:
        try:
            return self._spawn_worker()
        except PoolUnavailable:
            # Keep the dead handle; the dispatch loop skips non-alive
            # idle workers and the remaining pool carries the queue.
            dead.task = None
            dead.deadline = None
            return dead

    def _collect(self, worker: _Worker,
                 results: Dict[Tuple, TaskResult]) -> None:
        try:
            key, status, value, error, wall = worker.conn.recv()
        except (EOFError, OSError):
            return  # death handled by the liveness check
        if worker.task is None or key != worker.task.key:
            return  # stale message from a task already recorded
        if status == DONE:
            self._metrics["parallel.engine.tasks_completed"].inc()
        else:
            self._metrics["parallel.engine.tasks_failed"].inc()
        self._metrics["parallel.engine.shard_wall_seconds"].observe(wall)
        results[key] = TaskResult(key, status, value=value, error=error,
                                  attempts=worker.attempt, wall_seconds=wall)
        worker.task = None
        worker.deadline = None


def raise_unfinished(outcomes: Sequence[TaskResult], noun: str, exc_type,
                     labels: Optional[Sequence] = None) -> None:
    """Raise ``exc_type`` naming every mapped ``noun`` that did not
    finish (by ``labels[position]``, default the position itself); a
    no-op when all did. For sweeps where a hole voids the whole result."""
    failed = [outcome for outcome in outcomes if not outcome.ok]
    if not failed:
        return
    details = "; ".join(
        f"{noun} {labels[outcome.key[0]] if labels else outcome.key[0]} "
        f"{outcome.status}: "
        f"{outcome.error.strip().splitlines()[-1] if outcome.error else ''}"
        for outcome in failed)
    raise exc_type(f"{len(failed)} of {len(outcomes)} {noun}s did not "
                   f"complete ({details})")


def chunked(items: Sequence, chunks: int) -> List[List]:
    """Split ``items`` into at most ``chunks`` contiguous, order-
    preserving runs of near-equal length (never an empty chunk)."""
    items = list(items)
    chunks = max(1, min(chunks, len(items)))
    base, extra = divmod(len(items), chunks)
    out: List[List] = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        out.append(items[start:start + size])
        start += size
    return out
