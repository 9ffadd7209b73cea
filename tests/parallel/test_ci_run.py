"""The CI orchestrator's contracts: dry-run lists the exact commands,
exit codes survive the sequential fallback unchanged, and the summary
formats are machine-readable."""

import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

from repro.faults import WORKLOADS
from repro.parallel import ShardEngine
from repro.parallel.procs import run_command

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


def load_ci_run():
    spec = importlib.util.spec_from_file_location(
        "ci_run", os.path.join(REPO_ROOT, "tools", "ci_run.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules["ci_run"] = module  # dataclasses resolve via sys.modules
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def ci_run():
    return load_ci_run()


def run_tool(*argv, timeout=120):
    return subprocess.run([sys.executable, "tools/ci_run.py", *argv],
                          cwd=REPO_ROOT, capture_output=True, text=True,
                          timeout=timeout)


def test_dry_run_lists_the_exact_tier1_command():
    result = run_tool("--suite", "tier1", "--dry-run")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 1
    assert lines[0] == f"PYTHONPATH=src {sys.executable} -m pytest -x -q"


def test_dry_run_all_covers_every_suite(ci_run):
    result = run_tool("--suite", "all", "--dry-run")
    assert result.returncode == 0, result.stderr
    out = result.stdout
    # `all` is every SUITES entry, in table order, and nothing else.
    each = [run_tool("--suite", suite, "--dry-run").stdout
            for suite in ci_run.SUITES]
    assert all(each) and out == "".join(each)
    assert "-m pytest -x -q" in out
    assert "-m pytest smoke -m docs_check -q" in out
    assert "-m pytest smoke -m crash_smoke -q" in out
    # One sweep per named crash workload, each named exactly once.
    for workload in WORKLOADS:
        assert out.count(f"--workload {workload} ") == 1
    assert len(ci_run.suite_steps("sweeps", jobs=1)) == len(WORKLOADS) == 5
    assert out.rstrip().endswith("-m pytest bench -q")
    # Both idiom guards ride in the lint suite's one idiom step.
    lint = dict(zip(ci_run.SUITES, each))["lint"]
    (idioms,) = [line for line in lint.splitlines() if "::test_" in line]
    assert "::test_one_spelling_of_a_timed_step" in idioms
    assert "::test_raw_timeouts_are_allowlisted_pollers" in idioms


def test_workflow_and_docs_name_exactly_the_suites_table(ci_run):
    """SUITES is the single spelling: a suite the workflow or docs/CI.md
    names must be a SUITES key, and every key must appear in both."""
    with open(os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")) as f:
        workflow = f.read()
    with open(os.path.join(REPO_ROOT, "docs", "CI.md")) as f:
        docs = f.read()
    in_workflow = set(re.findall(r"--suite (\w+)", workflow)
                      + re.findall(r"\bsuite: (\w+)", workflow))
    rows = dict(re.findall(r"^\| `(\w+)` \| (.+?) \|", docs, re.MULTILINE))
    assert in_workflow == set(ci_run.SUITES)
    assert list(rows) == list(ci_run.SUITES)
    assert set(re.findall(r"--suite (\w+)", docs)) <= {*ci_run.SUITES, "all"}
    for name, (description, _) in ci_run.SUITES.items():
        assert rows[name] == description


def test_unknown_suite_exits_2():
    result = run_tool("--suite", "nope", "--dry-run")
    assert result.returncode == 2


def test_suite_requires_argument():
    result = run_tool("--dry-run")
    assert result.returncode == 2


def test_exit_codes_survive_the_sequential_fallback():
    failing = [sys.executable, "-c", "import sys; sys.exit(3)"]
    fn, cells = "repro.parallel.procs:run_command", [(failing,)]
    parallel = ShardEngine(jobs=2).map(fn, cells)
    sequential = ShardEngine(jobs=1).map(fn, cells)
    assert parallel[0].value["returncode"] == 3
    assert sequential[0].value["returncode"] == 3


def test_run_steps_reports_failures_with_real_exit_codes(ci_run, capsys):
    steps = [
        ci_run.Step("ok", [sys.executable, "-c", "print('fine')"]),
        ci_run.Step("bad", [sys.executable, "-c", "import sys; sys.exit(5)"]),
        ci_run.Step("soft", [sys.executable, "-c", "import sys; sys.exit(7)"],
                    advisory=True),
    ]
    results = ci_run.run_steps(steps, jobs=1)
    capsys.readouterr()
    by_name = {r.step.name: r for r in results}
    assert by_name["ok"].returncode == 0 and by_name["ok"].status == "pass"
    assert by_name["bad"].returncode == 5 and by_name["bad"].status == "FAIL"
    assert by_name["soft"].returncode == 7 and by_name["soft"].status == "warn"
    payload = ci_run.summary_payload(["custom"], results)
    assert payload["ok"] is False
    assert payload["failures"] == ["bad"]
    assert payload["warnings"] == ["soft"]


def test_fanout_steps_share_exit_code_semantics(ci_run, capsys):
    steps = [
        ci_run.Step("f-ok", [sys.executable, "-c", "print('y')"],
                    fanout=True),
        ci_run.Step("f-bad", [sys.executable, "-c", "import sys; sys.exit(4)"],
                    fanout=True),
    ]
    results = ci_run.run_steps(steps, jobs=2)
    capsys.readouterr()
    by_name = {r.step.name: r for r in results}
    assert by_name["f-ok"].returncode == 0
    assert by_name["f-bad"].returncode == 4


def test_junit_output_is_well_formed_xml(ci_run, tmp_path, capsys):
    steps = [
        ci_run.Step("good", [sys.executable, "-c", "print('ok')"]),
        ci_run.Step("bad", [sys.executable, "-c", "import sys; sys.exit(2)"]),
    ]
    results = ci_run.run_steps(steps, jobs=1)
    capsys.readouterr()
    path = tmp_path / "junit.xml"
    ci_run.write_junit(str(path), ["custom"], results)
    import xml.etree.ElementTree as ET
    root = ET.parse(path).getroot()
    assert root.tag == "testsuite"
    assert root.get("tests") == "2"
    assert root.get("failures") == "1"
    cases = {case.get("name"): case for case in root.findall("testcase")}
    assert cases["bad"].find("failure") is not None
    assert cases["good"].find("failure") is None


def test_run_command_reports_missing_binary_as_127():
    record = run_command(["/nonexistent/binary-for-this-test"])
    assert record["returncode"] == 127


def test_json_summary_flag_round_trips(ci_run):
    steps = [ci_run.Step("ok", [sys.executable, "-c", "print(1)"])]
    results = ci_run.run_steps(steps, jobs=1)
    payload = ci_run.summary_payload(["x"], results)
    decoded = json.loads(json.dumps(payload))
    assert decoded["ok"] is True
    assert decoded["steps"][0]["name"] == "ok"
