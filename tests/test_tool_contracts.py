"""The contract every ``tools/*.py`` script shares, one row per tool:
``--help`` exits 0, an unknown flag exits 2, ``--json`` (where the tool
has it) puts exactly one JSON document on stdout, ``--jobs`` means the
same thing everywhere (``0`` = all cores, negative = exit 2), and an
out-of-range argument exits 2 naming its flag."""

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: tool -> a cheap argv that ends in one JSON document on stdout; None
#: where the tool has no ``--json``.
TOOLS = {
    "check_docs.py": ["--json"],
    "ci_run.py": ["--suite", "lint", "--json"],
    "crash_explore.py": ["--budget", "3", "--json"],
    "fuzz.py": ["run", "--cases", "4", "--json"],
    "metrics_report.py": None,
    "policy_report.py": ["--mix", "small-sync-write", "--json"],
    "trace_report.py": ["--size-mib", "0.25", "--json"],
}

#: The three tools with ``--jobs`` -> a cheap argv to append it to.
JOBS_TOOLS = {
    "ci_run.py": ["--suite", "tier1", "--dry-run"],
    "crash_explore.py": ["--list-points"],
    "fuzz.py": ["run", "--cases", "2"],
}

#: (tool, argv, flag): an out-of-range value must be a usage error that
#: names the flag, never a sweep that explores nothing, a campaign that
#: never ends (the subprocess timeout turns a hang into a failure) or a
#: crash deep inside the run.
MALFORMED = [
    ("crash_explore.py", ["--budget", "-1", "--check"], "--budget"),
    ("crash_explore.py", ["--ops", "-3", "--check"], "--ops"),
    ("crash_explore.py", ["--subsets", "-1", "--check"], "--subsets"),
    ("crash_explore.py", ["--shard-timeout", "0", "--check"],
     "--shard-timeout"),
    ("fuzz.py", ["run", "--batch", "0"], "--batch"),
    ("fuzz.py", ["run", "--batch", "-1"], "--batch"),
    ("fuzz.py", ["run", "--cases", "-1", "--check"], "--cases"),
    ("fuzz.py", ["run", "--time-budget", "-1", "--check"], "--time-budget"),
    ("fuzz.py", ["run", "--time-budget", "0"], "--time-budget"),
    ("fuzz.py", ["run", "--max-ops", "3"], "--max-ops"),
    ("metrics_report.py", ["--scale", "0"], "--scale"),
    ("trace_report.py", ["--scale", "0"], "--scale"),
    ("metrics_report.py", ["--size-mib", "-1"], "--size-mib"),
    ("trace_report.py", ["--size-mib", "0"], "--size-mib"),
    ("trace_report.py", ["--size-mib", "inf"], "--size-mib"),
    ("metrics_report.py", ["--fsync", "-2"], "--fsync"),
    ("trace_report.py", ["--slowest", "-3"], "--slowest"),
    ("ci_run.py", ["--suite", "lint", "--junit", "no-such-dir/ci.xml"],
     "--junit"),
]


def run_tool(tool, argv):
    # A missing script exits 2 too, which would pass a usage-error check.
    script = os.path.join(REPO_ROOT, "tools", tool)
    assert os.path.isfile(script), f"no such tool: {tool}"
    return subprocess.run([sys.executable, script, *argv],
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
def test_json_stdout_is_exactly_one_document(tool):
    result = run_tool(tool, TOOLS[tool])
    assert result.returncode in (0, 1), result.stderr
    json.loads(result.stdout)  # raises on a stray line before or after


@pytest.mark.parametrize("tool", sorted(JOBS_TOOLS))
def test_jobs_zero_is_all_cores_and_negative_is_a_usage_error(tool):
    all_cores = run_tool(tool, [*JOBS_TOOLS[tool], "--jobs", "0"])
    assert all_cores.returncode == 0, all_cores.stdout + all_cores.stderr
    negative = run_tool(tool, [*JOBS_TOOLS[tool], "--jobs", "-3"])
    assert negative.returncode == 2, negative.stdout + negative.stderr
    assert "--jobs" in negative.stderr


@pytest.mark.parametrize("tool, argv, flag", MALFORMED,
                         ids=["_".join([tool[:-3], *argv])
                              for tool, argv, _flag in MALFORMED])
def test_an_out_of_range_argument_exits_2_naming_its_flag(tool, argv, flag):
    result = run_tool(tool, argv)
    assert result.returncode == 2, result.stdout + result.stderr
    assert flag in result.stderr
