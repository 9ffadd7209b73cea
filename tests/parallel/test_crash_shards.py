"""Sharded crash sweeps must be *indistinguishable* from sequential
ones: same cases, same violations, same report bytes, for any worker
count. These tests pin that, plus the failure mode (a lost shard raises
rather than silently merging a partial sweep) and the seed matrix."""

import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.faults import ExplorationError
from repro.parallel import ShardEngine, SweepSpec, parallel_explore, seed_matrix
from repro.parallel.crash import make_explorer, run_shard

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable")

SPEC = SweepSpec(workload="fio", budget=10, subsets=1, seed=0)


def case_fields(result):
    return [(case.point, case.variant, case.keep_lines,
             [(v.invariant, v.message) for v in case.violations])
            for case in result.cases]


def test_parallel_explore_equals_sequential_explore():
    sequential = make_explorer(SPEC).explore()
    parallel = parallel_explore(SPEC, ShardEngine(jobs=4))
    assert parallel.points == sequential.points
    assert parallel.selected == sequential.selected
    assert case_fields(parallel) == case_fields(sequential)
    assert parallel.summary() == sequential.summary()


def test_case_plan_matches_explore_order():
    explorer = make_explorer(SPEC)
    plan = explorer.case_plan()
    result = explorer.explore()
    assert len(plan) == len(result.cases)
    for (index, variant), case in zip(plan, result.cases):
        expected_site = ("end_of_run" if index is None
                         else result.points[index].site)
        assert case.point.site == expected_site


def test_run_shard_executes_a_plan_slice():
    explorer = make_explorer(SPEC)
    plan = explorer.case_plan()[:3]
    cases = run_shard(
        {"workload": "fio", "ops": None, "budget": 10, "subsets": 1,
         "seed": 0}, plan)
    assert [case.point.index for case in cases] == \
        [index for index, _ in plan]


def run_cli(*argv):
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return subprocess.run(
        [sys.executable, "tools/crash_explore.py", *argv],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300)


def test_cli_report_is_byte_identical_across_jobs():
    one = run_cli("--workload", "fio", "--budget", "8", "--jobs", "1",
                  "--check")
    four = run_cli("--workload", "fio", "--budget", "8", "--jobs", "4",
                   "--check")
    assert one.returncode == 0, one.stdout + one.stderr
    assert four.returncode == 0, four.stdout + four.stderr
    assert one.stdout == four.stdout


def test_cli_json_is_byte_identical_across_jobs():
    one = run_cli("--workload", "fio", "--budget", "8", "--jobs", "1",
                  "--json")
    two = run_cli("--workload", "fio", "--budget", "8", "--jobs", "2",
                  "--json")
    assert one.returncode == 0, one.stdout + one.stderr
    assert one.stdout == two.stdout
    import json
    summary = json.loads(one.stdout)
    assert summary["ok"] is True
    assert summary["workload"] == "fio"
    assert summary["violations"] == 0


def test_cli_traced_report_is_byte_identical_across_jobs():
    # Tracing must not perturb the sweep: the sharded traced report is
    # byte-identical to the sequential traced report.
    one = run_cli("--workload", "fio", "--budget", "8", "--jobs", "1",
                  "--trace", "--check")
    four = run_cli("--workload", "fio", "--budget", "8", "--jobs", "4",
                   "--trace", "--check")
    assert one.returncode == 0, one.stdout + one.stderr
    assert four.returncode == 0, four.stdout + four.stderr
    assert one.stdout == four.stdout
    assert "tracing: enabled" in one.stdout


def test_cli_traced_json_matches_untraced_json():
    # The machine-readable summary carries no tracing fields, so traced
    # and untraced sweeps must emit the same bytes.
    plain = run_cli("--workload", "fio", "--budget", "8", "--json")
    traced = run_cli("--workload", "fio", "--budget", "8", "--trace",
                     "--json")
    assert plain.returncode == 0, plain.stdout + plain.stderr
    assert traced.returncode == 0, traced.stdout + traced.stderr
    assert plain.stdout == traced.stdout


@needs_fork
def test_lost_shard_raises_instead_of_merging_partial_sweep(monkeypatch):
    import repro.parallel.crash as crash_mod

    def explode(spec_fields, cases):
        raise RuntimeError("shard lost")

    # Workers fork after the patch, so they inherit the broken worker fn.
    monkeypatch.setattr(crash_mod, "run_shard", explode)
    engine = ShardEngine(jobs=2)
    with pytest.raises(ExplorationError, match="shards did not complete"):
        parallel_explore(SPEC, engine)


def test_seed_matrix_is_deterministic_and_seed_ordered():
    spec = SweepSpec(workload="fio", budget=5, subsets=1, seed=0)
    cells_parallel = seed_matrix(spec, [2, 0, 1], ShardEngine(jobs=3))
    cells_sequential = seed_matrix(spec, [0, 1, 2], ShardEngine(jobs=1))
    assert cells_parallel == cells_sequential
    assert [cell["seed"] for cell in cells_parallel] == [0, 1, 2]
    assert all(cell["violations"] == 0 for cell in cells_parallel)


def test_sweep_spec_rejects_unknown_workload():
    with pytest.raises(ValueError, match="unknown crash workload"):
        SweepSpec(workload="nope")
