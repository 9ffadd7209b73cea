"""The generic multi-process shard engine.

:meth:`ShardEngine.map` runs one worker function, named by dotted path
(``pkg.module:func``), once per tuple of picklable arguments, on a pool
of long-lived worker processes connected by pipes. It enforces three
contracts the validation sweeps rely on:

- **per-call timeout** — a worker that exceeds its call's deadline is
  terminated (the simulation may be wedged; there is no safe in-process
  interrupt) and a fresh worker takes its place;
- **bounded retry** — a call whose worker died or timed out is
  dispatched up to :data:`MAX_ATTEMPTS` times, then recorded as
  ``timeout``/``crashed`` rather than raised, so one poisoned shard
  cannot sink a sweep. A call that raises a *Python exception* is
  recorded as ``failed`` without retry — exceptions are deterministic
  and retrying them wastes a slot;
- **deterministic merge** — outcome ``i`` belongs to argument tuple
  ``i``, never to whichever worker finished first.

At ``jobs=1``, or when the host refuses to start a worker process, the
engine runs every call in-process, in order, with identical result
records and statuses — except that timeouts cannot be enforced without
process isolation, so in-process calls run to completion. That is the
one sequential path: callers keep none of their own.

Worker functions must be importable top-level callables; arguments and
return values must pickle. Closures are out — that is what keeps calls
replayable across worker deaths. Workers start by ``fork`` where the
host has it, so they inherit what the parent cached before the map.
"""

from __future__ import annotations

import importlib
import multiprocessing
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Dict, List, Optional, Sequence, Tuple

#: Call terminal statuses.
DONE = "done"          # worker returned a value
FAILED = "failed"      # worker raised a Python exception (not retried)
TIMEOUT = "timeout"    # exceeded its deadline on every attempt
CRASHED = "crashed"    # worker process died on every attempt

#: Deadline (seconds) of one mapped cell in parallel mode, shared by
#: every sweep: demo-scale cells run in ~1 s, so a cell pinned for
#: minutes is wedged, not slow.
CELL_TIMEOUT = 600.0

#: Dispatches of one call before a worker death or timeout is terminal.
MAX_ATTEMPTS = 2

#: How long the dispatcher sleeps in ``connection.wait`` when no
#: deadline is nearer (seconds). Small enough to notice dead workers
#: promptly, large enough not to spin.
_POLL_INTERVAL = 0.05

#: Fork where the host has it (workers inherit the parent's caches),
#: else the platform's default start method.
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None)


class _PoolUnavailable(RuntimeError):
    """The host refused to start a worker process."""


@dataclass
class TaskResult:
    """Terminal outcome of one mapped call (one record per call, always)."""

    position: int                    # index into the map's arg_tuples
    status: str                      # done | failed | timeout | crashed
    value: object = None
    error: str = ""
    attempts: int = 1
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == DONE


def _resolve(fn: str):
    """``pkg.module:callable`` -> the callable (import on demand)."""
    module_name, sep, attr = fn.partition(":")
    if not sep or not module_name or not attr:
        raise ValueError(f"worker reference {fn!r} is not 'module:callable'")
    return getattr(importlib.import_module(module_name), attr)


def _call(fn: str, args: Tuple) -> Tuple[str, object, str, float]:
    """Run one call: ``(status, value, error, wall seconds)``. A raise
    is ``failed`` with its traceback as the error."""
    started = time.perf_counter()
    try:
        outcome = (DONE, _resolve(fn)(*args), "")
    except Exception:
        outcome = (FAILED, None, traceback.format_exc())
    return outcome + (time.perf_counter() - started,)


def _worker_main(conn, fn: str) -> None:
    """Worker process loop: receive ``(position, args)``, call ``fn``,
    send ``(position, *outcome)``. Runs until the pipe closes or a
    ``None`` sentinel arrives; an unpicklable result is reported as a
    failed call rather than killing the worker."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        position, args = message
        reply = (position,) + _call(fn, args)
        try:
            conn.send(reply)
        except Exception:
            conn.send((position, FAILED, None,
                       f"result of call {position} is not picklable",
                       reply[-1]))


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
    position: Optional[int] = None
    attempt: int = 0
    deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.position is not None

    def idle(self) -> None:
        self.position = None
        self.deadline = None


class ShardEngine:
    """Maps worker calls over ``jobs`` worker processes (``jobs=1``:
    in-process). ``registry`` (a :class:`repro.obs.MetricsRegistry`)
    enables the ``parallel.engine.*`` metrics."""

    def __init__(self, jobs: int, registry=None):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        if registry is not None:
            self._metrics = register_engine_metrics(registry)
        else:
            null = _Null()
            self._metrics = {name: null for _, name, _, _ in METRIC_SPECS}

    def map(self, fn: str, arg_tuples: Sequence[Tuple],
            timeout: Optional[float] = CELL_TIMEOUT) -> List[TaskResult]:
        """Call worker ``fn`` once per argument tuple, each to a terminal
        status; outcome ``i`` belongs to ``arg_tuples[i]``. ``timeout``
        (seconds, ``None`` for none) bounds one attempt in a worker."""
        calls = [tuple(args) for args in arg_tuples]
        self._metrics["parallel.engine.jobs"].set(self.jobs)
        if self.jobs > 1 and calls:
            try:
                return self._map_parallel(fn, calls, timeout)
            except _PoolUnavailable:
                self._metrics["parallel.engine.sequential_fallbacks"].inc()
        return self._map_in_process(fn, calls)

    # -- in-process ---------------------------------------------------------

    def _map_in_process(self, fn: str,
                        calls: List[Tuple]) -> List[TaskResult]:
        results = []
        for position, args in enumerate(calls):
            self._metrics["parallel.engine.tasks_dispatched"].inc()
            results.append(self._finish(position, 1, *_call(fn, args)))
        return results

    def _finish(self, position: int, attempts: int, status: str,
                value: object, error: str, wall: float) -> TaskResult:
        """Count a call that ran to its end and make its record."""
        self._metrics["parallel.engine.tasks_completed" if status == DONE
                      else "parallel.engine.tasks_failed"].inc()
        self._metrics["parallel.engine.shard_wall_seconds"].observe(wall)
        return TaskResult(position, status, value, error, attempts, wall)

    # -- worker pool --------------------------------------------------------

    def _spawn_worker(self, fn: str) -> _Worker:
        parent_conn, child_conn = _CONTEXT.Pipe()
        try:
            process = _CONTEXT.Process(target=_worker_main,
                                       args=(child_conn, fn), daemon=True)
            process.start()
        except (OSError, ValueError) as exc:
            parent_conn.close()
            child_conn.close()
            raise _PoolUnavailable(f"cannot start worker process: {exc}")
        child_conn.close()
        self._metrics["parallel.engine.workers_spawned"].inc()
        return _Worker(process=process, conn=parent_conn)

    def _assign(self, worker: _Worker, position: int, attempt: int,
                args: Tuple, timeout: Optional[float]) -> None:
        worker.position = position
        worker.attempt = attempt
        worker.deadline = time.monotonic() + timeout if timeout else None
        self._metrics["parallel.engine.tasks_dispatched"].inc()
        worker.conn.send((position, args))

    def _retry_or_record(self, worker: _Worker, status: str, error: str,
                         queue: List[Tuple[int, int]],
                         results: Dict[int, TaskResult]) -> None:
        """A worker died or blew its deadline mid-call: either requeue
        the call or record its terminal status."""
        position, attempt = worker.position, worker.attempt
        worker.idle()
        if attempt < MAX_ATTEMPTS:
            self._metrics["parallel.engine.tasks_retried"].inc()
            queue.append((position, attempt + 1))
            return
        if status == TIMEOUT:
            self._metrics["parallel.engine.tasks_timed_out"].inc()
        else:
            self._metrics["parallel.engine.tasks_failed"].inc()
        results[position] = TaskResult(position, status, error=error,
                                       attempts=attempt)

    def _kill(self, worker: _Worker) -> None:
        worker.conn.close()
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():  # pragma: no cover - last resort
            worker.process.kill()
            worker.process.join(timeout=5.0)

    def _map_parallel(self, fn: str, calls: List[Tuple],
                      timeout: Optional[float]) -> List[TaskResult]:
        queue: List[Tuple[int, int]] = [(position, 1)
                                        for position in range(len(calls))]
        results: Dict[int, TaskResult] = {}
        # The first worker failing to start means no pool at all ->
        # _PoolUnavailable propagates and map() runs in-process. Later
        # spawn failures just shrink the pool.
        workers: List[_Worker] = [self._spawn_worker(fn)]
        try:
            for _ in range(min(self.jobs, len(calls)) - 1):
                try:
                    workers.append(self._spawn_worker(fn))
                except _PoolUnavailable:
                    break
            while len(results) < len(calls):
                for worker in workers:
                    if (not worker.busy and queue
                            and worker.process.is_alive()):
                        position, attempt = queue.pop(0)
                        self._assign(worker, position, attempt,
                                     calls[position], timeout)
                busy = [w for w in workers if w.busy]
                if not busy:
                    if queue:  # every worker died; respawn or bail
                        workers = [w for w in workers if w.process.is_alive()]
                        if not workers:
                            workers.append(self._spawn_worker(fn))
                        continue
                    break  # nothing busy, nothing queued: all terminal
                wait = _POLL_INTERVAL
                now = time.monotonic()
                for worker in busy:
                    if worker.deadline is not None:
                        wait = min(wait, max(worker.deadline - now, 0.0))
                ready = _connection_wait([w.conn for w in busy], timeout=wait)
                for worker in busy:
                    if worker.conn in ready:
                        self._collect(worker, results)
                now = time.monotonic()
                for index, worker in enumerate(workers):
                    if not worker.busy:
                        continue
                    if worker.deadline is not None and now > worker.deadline:
                        status, error = (TIMEOUT,
                                         f"exceeded {timeout}s deadline")
                    elif not worker.process.is_alive():
                        self._metrics["parallel.engine.worker_crashes"].inc()
                        status, error = (CRASHED, "worker died (exit code "
                                         f"{worker.process.exitcode})")
                    else:
                        continue
                    self._kill(worker)
                    self._retry_or_record(worker, status, error, queue,
                                          results)
                    workers[index] = self._replace(worker, fn)
        finally:
            for worker in workers:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
                self._kill(worker)
        return [results[position] for position in range(len(calls))]

    def _replace(self, dead: _Worker, fn: str) -> _Worker:
        try:
            return self._spawn_worker(fn)
        except _PoolUnavailable:
            # Keep the dead handle; the dispatch loop skips non-alive
            # idle workers and the remaining pool carries the queue.
            dead.idle()
            return dead

    def _collect(self, worker: _Worker,
                 results: Dict[int, TaskResult]) -> None:
        try:
            position, *outcome = worker.conn.recv()
        except (EOFError, OSError):
            return  # death handled by the liveness check
        if position != worker.position:
            return  # stale message from a call already recorded
        results[position] = self._finish(position, worker.attempt, *outcome)
        worker.idle()


def raise_unfinished(outcomes: Sequence[TaskResult], noun: str, exc_type,
                     labels: Optional[Sequence] = None) -> None:
    """Raise ``exc_type`` naming every mapped ``noun`` that did not
    finish (by ``labels[position]``, default the position itself); a
    no-op when all did. For sweeps where a hole voids the whole result."""
    failed = [outcome for outcome in outcomes if not outcome.ok]
    if not failed:
        return
    details = "; ".join(
        f"{noun} {labels[outcome.position] if labels else outcome.position} "
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
