"""The contract every ``tools/*.py`` script shares, one row per tool:
``--help`` exits 0, an unknown flag exits 2, ``--json`` (where the tool
has it) puts exactly one JSON document on stdout, and ``--jobs`` means
the same thing everywhere (``0`` = all cores, negative = exit 2)."""

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY_GRID = {"name": "tiny",
             "axes": [{"name": "tenants", "values": [2]}],
             "base": {"seed": 0, "operations": 2, "workers": 4,
                      "schedule": "bursty", "duration": 0.02,
                      "stack": "nvcache+ssd", "scale_factor": 4096,
                      "log_kib": 64},
             "expectations": []}

#: tool -> a cheap argv that ends in one JSON document on stdout
#: (``GRID`` stands for a tiny grid file); None where the tool has no
#: ``--json``.
TOOLS = {
    "capacity_report.py": ["--grid-file", "GRID", "--json"],
    "check_docs.py": ["--json"],
    "ci_run.py": ["--suite", "lint", "--json"],
    "crash_explore.py": ["--budget", "3", "--json"],
    "fuzz.py": ["run", "--cases", "4", "--json"],
    "metrics_report.py": None,
    "policy_report.py": ["--mix", "small-sync-write", "--json"],
    "tenant_report.py": ["--tenants", "8", "--ops", "2", "--json"],
    "trace_report.py": ["--size-mib", "0.25", "--json"],
}

#: The five tools with ``--jobs`` -> a cheap argv to append it to.
JOBS_TOOLS = {
    "capacity_report.py": ["--grid-file", "GRID"],
    "ci_run.py": ["--suite", "tier1", "--dry-run"],
    "crash_explore.py": ["--list-points"],
    "fuzz.py": ["run", "--cases", "2"],
    "tenant_report.py": ["--tenants", "2", "--ops", "1"],
}


@pytest.fixture(scope="module")
def grid_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("grid") / "tiny.json"
    path.write_text(json.dumps(TINY_GRID))
    return str(path)


def run_tool(tool, argv, grid_file=None):
    argv = [grid_file if arg == "GRID" else arg for arg in argv]
    return subprocess.run([sys.executable, os.path.join("tools", tool), *argv],
                          cwd=REPO_ROOT, capture_output=True, text=True,
                          timeout=120)


def test_the_table_covers_every_tool():
    on_disk = {name for name in os.listdir(os.path.join(REPO_ROOT, "tools"))
               if name.endswith(".py")}
    assert on_disk == set(TOOLS)


@pytest.mark.parametrize("tool", sorted(TOOLS))
def test_help_exits_0_and_unknown_flag_exits_2(tool):
    helped = run_tool(tool, ["--help"])
    assert helped.returncode == 0, helped.stderr
    assert "usage:" in helped.stdout
    unknown = run_tool(tool, ["--no-such-flag"])
    assert unknown.returncode == 2, unknown.stdout + unknown.stderr


@pytest.mark.parametrize("tool", sorted(t for t, argv in TOOLS.items() if argv))
def test_json_stdout_is_exactly_one_document(tool, grid_file):
    result = run_tool(tool, TOOLS[tool], grid_file)
    assert result.returncode in (0, 1), result.stderr
    json.loads(result.stdout)  # raises on a stray line before or after


@pytest.mark.parametrize("tool", sorted(JOBS_TOOLS))
def test_jobs_zero_is_all_cores_and_negative_is_a_usage_error(tool, grid_file):
    all_cores = run_tool(tool, [*JOBS_TOOLS[tool], "--jobs", "0"], grid_file)
    assert all_cores.returncode == 0, all_cores.stdout + all_cores.stderr
    negative = run_tool(tool, [*JOBS_TOOLS[tool], "--jobs", "-3"], grid_file)
    assert negative.returncode == 2, negative.stdout + negative.stderr
    assert "--jobs" in negative.stderr


def test_verify_sharding_refuses_a_single_worker():
    # Sequential-vs-sequential would print "byte-identical" vacuously.
    result = run_tool("tenant_report.py",
                      ["--verify-sharding", "--seeds", "2", "--jobs", "1",
                       "--tenants", "4", "--ops", "2"])
    assert result.returncode == 2, result.stdout + result.stderr
    assert "byte-identical" not in result.stdout
