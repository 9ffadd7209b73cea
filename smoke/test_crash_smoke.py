"""Crash-exploration smoke runs (``crash_smoke`` marker, outside tier-1).

A budgeted in-process sweep plus the documented CLI commands from
docs/CRASH_TESTING.md, run as real subprocesses — the full exhaustive
sweeps live in ``tests/faults/``; this is the quick standing gate.
"""

import os
import subprocess
import sys
import time

import pytest

pytestmark = pytest.mark.crash_smoke

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Worker count for the budgeted sweeps; tools/ci_run.py --suite crash
#: plumbs its --jobs value through this variable.
CRASH_JOBS = int(os.environ.get("REPRO_CRASH_JOBS", "0") or 0) \
    or min(4, os.cpu_count() or 1)


def run_script(*argv, timeout=300):
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return subprocess.run([sys.executable, *argv], cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_budgeted_sweep_holds_the_contract():
    from repro.faults import CrashExplorer, fio_write_phased

    explorer = CrashExplorer(fio_write_phased(), budget=15, drop_subsets=1,
                             seed=0)
    result = explorer.explore()
    assert len(result.points) >= 100
    assert result.violations == []


def test_cli_check_exits_zero_on_a_clean_workload():
    result = run_script("tools/crash_explore.py", "--workload", "fio",
                        "--budget", "10", "--check",
                        "--jobs", str(CRASH_JOBS))
    assert result.returncode == 0, result.stdout + result.stderr
    assert "violations:              0" in result.stdout


def test_parallel_sweep_is_byte_identical_and_faster():
    """The acceptance gate for `--jobs`: a 4-way sharded fio sweep —
    every worker re-enumerating the workload for itself
    (docs/CRASH_TESTING.md "How a sweep runs") — emits a byte-identical report to a sequential one and holds the
    durability contract (unconditional), and on a host with >= 4 cores
    it finishes measurably faster (>= 1.5x — wall-clock assertions are
    meaningless on starved runners, so the speedup half gates on core
    count)."""
    argv = ("tools/crash_explore.py", "--workload", "fio",
            "--subsets", "2", "--check")

    started = time.perf_counter()
    sequential = run_script(*argv, "--jobs", "1")
    sequential_wall = time.perf_counter() - started

    started = time.perf_counter()
    parallel = run_script(*argv, "--jobs", "4")
    parallel_wall = time.perf_counter() - started

    assert sequential.returncode == 0, sequential.stdout + sequential.stderr
    assert parallel.returncode == 0, parallel.stdout + parallel.stderr
    assert parallel.stdout == sequential.stdout  # byte-identical report
    assert "violations:              0" in sequential.stdout

    if (os.cpu_count() or 1) >= 4:
        assert sequential_wall >= 1.5 * parallel_wall, (
            f"expected >= 1.5x speedup on {os.cpu_count()} cores: "
            f"sequential {sequential_wall:.2f}s, "
            f"parallel {parallel_wall:.2f}s")


def test_traced_sweep_is_byte_identical_to_untraced():
    # The standing gate for trace determinism under the parallel engine:
    # a traced sharded sweep reports exactly what an untraced one does
    # (modulo the explicit "tracing: enabled" banner).
    argv = ("tools/crash_explore.py", "--workload", "fio",
            "--budget", "10", "--check", "--jobs", str(CRASH_JOBS))
    plain = run_script(*argv)
    traced = run_script(*argv, "--trace")
    assert plain.returncode == 0, plain.stdout + plain.stderr
    assert traced.returncode == 0, traced.stdout + traced.stderr
    assert traced.stdout.replace("tracing: enabled\n", "") == plain.stdout


def test_seed_matrix_smoke():
    result = run_script("tools/crash_explore.py", "--workload", "fio",
                        "--budget", "8", "--seeds", "0-2", "--check",
                        "--jobs", str(CRASH_JOBS))
    assert result.returncode == 0, result.stdout + result.stderr
    assert "seed matrix: 3 cell(s)" in result.stdout
    assert "total violations: 0" in result.stdout


def test_cli_list_points_enumerates():
    result = run_script("tools/crash_explore.py", "--workload", "fio",
                        "--list-points")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "crash points" in result.stdout
    assert "core.log.committed" in result.stdout


def test_cli_rejects_unknown_workload():
    result = run_script("tools/crash_explore.py", "--workload", "nope")
    assert result.returncode == 2
