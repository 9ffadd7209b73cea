"""Contract tests for the generic shard engine's one API, ``map``:
deterministic merge, bounded retry on worker death, per-call timeouts,
and the in-process path. Worker functions live in
``tests/parallel/workers.py``."""

import multiprocessing
import time

import pytest

from repro.obs import MetricsRegistry
from repro.parallel import ShardEngine, register_engine_metrics
from repro.parallel import engine as engine_module
from repro.parallel.engine import (CRASHED, DONE, FAILED, MAX_ATTEMPTS,
                                   TIMEOUT, chunked)

W = "tests.parallel.workers"

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable")


def squares(n=8):
    return [(i,) for i in range(n)]


def spawned(registry) -> float:
    return registry.get("parallel.engine.workers_spawned").value()


def test_parallel_results_are_in_position_order_and_correct():
    registry = MetricsRegistry()
    results = ShardEngine(jobs=3, registry=registry).map(
        f"{W}:square", squares(10))
    assert spawned(registry) > 0
    assert [r.position for r in results] == list(range(10))
    assert [r.value for r in results] == [i * i for i in range(10)]
    assert all(r.status == DONE for r in results)


def test_sequential_fallback_produces_identical_records():
    parallel = ShardEngine(jobs=2).map(f"{W}:square", squares(6))
    sequential = ShardEngine(jobs=1).map(f"{W}:square", squares(6))
    strip = [(r.position, r.status, r.value) for r in parallel]
    assert strip == [(r.position, r.status, r.value) for r in sequential]


def test_jobs_one_runs_in_process():
    registry = MetricsRegistry()
    results = ShardEngine(jobs=1, registry=registry).map(
        f"{W}:square", squares(3))
    assert spawned(registry) == 0
    assert [r.value for r in results] == [0, 1, 4]


def test_worker_exception_is_failed_not_retried_and_does_not_sink_the_run():
    results = ShardEngine(jobs=2).map(
        f"{W}:pick", [("square", i) for i in range(4)]
        + [("boom", "kaboom")])
    assert results[4].status == FAILED
    assert "kaboom" in results[4].error
    assert results[4].attempts == 1
    assert [r.status for r in results[:4]] == [DONE] * 4


def test_malformed_worker_reference_is_a_failed_call():
    for jobs in (1, 2):
        results = ShardEngine(jobs=jobs).map("no_colon_here", [(), ()])
        assert [r.status for r in results] == [FAILED, FAILED]
        assert "not 'module:callable'" in results[0].error


@needs_fork
def test_killed_worker_is_retried_then_succeeds(tmp_path):
    marker = tmp_path / "died-once"
    registry = MetricsRegistry()
    results = ShardEngine(jobs=2, registry=registry).map(
        f"{W}:pick", [("square", i) for i in range(4)]
        + [("die_once", str(marker), 42)])
    assert results[4].status == DONE
    assert results[4].value == 42
    assert results[4].attempts == 2
    assert registry.get("parallel.engine.tasks_retried").value() == 1
    assert registry.get("parallel.engine.worker_crashes").value() >= 1


@needs_fork
def test_persistently_dying_worker_is_reported_not_raised():
    registry = MetricsRegistry()
    results = ShardEngine(jobs=2, registry=registry).map(
        f"{W}:pick", [("square", i) for i in range(4)] + [("die",)])
    assert results[4].status == CRASHED
    assert results[4].attempts == MAX_ATTEMPTS
    assert "died" in results[4].error
    # The healthy calls all completed despite the worker deaths.
    assert [r.status for r in results[:4]] == [DONE] * 4


def test_hung_worker_is_timed_out_without_stalling_the_sweep():
    registry = MetricsRegistry()
    started = time.perf_counter()
    results = ShardEngine(jobs=2, registry=registry).map(
        f"{W}:pick", [("sleepy", 60.0)] + [("square", i)
                                           for i in range(1, 5)],
        timeout=0.4)
    assert time.perf_counter() - started < 30.0
    assert results[0].status == TIMEOUT
    assert results[0].attempts == MAX_ATTEMPTS
    assert [r.status for r in results[1:]] == [DONE] * 4
    assert registry.get("parallel.engine.tasks_timed_out").value() == 1


def test_pool_failure_degrades_to_sequential(monkeypatch):
    registry = MetricsRegistry()
    engine = ShardEngine(jobs=4, registry=registry)

    def refuse(*args, **kwargs):
        raise OSError("no processes today")

    monkeypatch.setattr(engine_module._CONTEXT, "Process", refuse)
    results = engine.map(f"{W}:square", squares(5))
    assert spawned(registry) == 0
    assert [r.value for r in results] == [i * i for i in range(5)]
    assert registry.get(
        "parallel.engine.sequential_fallbacks").value() == 1


def test_unpicklable_result_is_an_error_not_a_hang():
    results = ShardEngine(jobs=2).map(f"{W}:unpicklable", [()])
    assert results[0].status == FAILED
    assert "picklable" in results[0].error


def test_empty_map():
    assert ShardEngine(jobs=4).map(f"{W}:square", []) == []


def test_chunked_partitions_in_order():
    assert chunked(list(range(7)), 3) == [[0, 1, 2], [3, 4], [5, 6]]
    assert chunked([1, 2], 8) == [[1], [2]]
    assert chunked([], 4) == [[]]
    flat = [x for chunk in chunked(list(range(100)), 7) for x in chunk]
    assert flat == list(range(100))


def test_register_engine_metrics_is_idempotent():
    registry = MetricsRegistry()
    first = register_engine_metrics(registry)
    second = register_engine_metrics(registry)
    assert first == second
    # Two engines on one registry must not collide either.
    ShardEngine(jobs=1, registry=registry)
    ShardEngine(jobs=1, registry=registry)
