"""Docs/tooling smoke runs (``docs_check`` marker, outside tier-1).

Everything here shells out, because the point is that the *commands the
documentation tells people to run* actually run. One ``check(argv, rc,
*needles)`` helper, one ``COMMANDS`` row per documented command whose
contract is "this exit code, these strings on stdout"; commands whose
JSON is inspected get a short test each on top of the same helper. The
shared ``--help`` / unknown-flag / one-JSON-document / ``--jobs``
contract of the tools is tier-1 (``tests/test_tool_contracts.py``).
"""

import ast
import glob
import importlib.util
import json
import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.docs_check

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

def check(argv, rc=0, *needles, timeout=300):
    """Run ``python *argv`` from the repo root; assert the exit code and
    that every needle is on stdout; return the completed process."""
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    result = subprocess.run([sys.executable, *argv], cwd=REPO_ROOT, env=env,
                            capture_output=True, text=True, timeout=timeout)
    assert result.returncode == rc, (result.stdout + result.stderr)[-2000:]
    for needle in needles:
        assert needle in result.stdout, f"{needle!r} not on stdout"
    return result


def check_json(argv):
    return json.loads(check([*argv, "--json"]).stdout)


#: (argv, exit code, strings that must be on stdout)
COMMANDS = [
    (["tools/check_docs.py"], 0, "all documented"),
    (["tools/ci_run.py", "--suite", "docs", "--dry-run"], 0,
     "-m pytest smoke -m docs_check -q"),
    (["tools/metrics_report.py", "--size-mib", "1"], 0,
     "read-cache hit ratio", "log occupancy", "p99 write latency",
     "[core]", "[nvmm]", "[block]"),
    (["tools/metrics_report.py", "--size-mib", "1", "--export", "prom"], 0,
     "# TYPE core_nvcache_writes_ops counter", "_bucket{le="),
    (["tools/metrics_report.py", "--size-mib", "1", "--trace"], 0,
     "p99 write latency exemplar", "trace "),
    (["tools/metrics_report.py", "--system", "dm-writecache+ssd",
      "--size-mib", "1"], 0, "block.dm_writecache.occupancy"),
    (["tools/trace_report.py", "--size-mib", "0.5"], 0,
     "spans by name:", "libc.pwrite", "critical-path attribution",
     "tail exemplars:"),
] + [([os.path.relpath(script, REPO_ROOT)], 0) for script in sorted(
    glob.glob(os.path.join(REPO_ROOT, "examples", "*.py")))]


@pytest.mark.parametrize(
    "argv, rc, needles", [(row[0], row[1], row[2:]) for row in COMMANDS],
    ids=[" ".join(os.path.basename(arg) for arg in row[0])
         for row in COMMANDS])
def test_documented_command(argv, rc, needles):
    check(argv, rc, *needles)


def test_ci_run_dry_run_lists_the_tier1_command():
    line = check(["tools/ci_run.py", "--suite", "tier1",
                  "--dry-run"]).stdout.strip()
    assert line.startswith("PYTHONPATH=src ")
    assert line.endswith("-m pytest -x -q")


def test_check_docs_json_summary():
    summary = check_json(["tools/check_docs.py"])
    assert summary["ok"] is True
    assert summary["undocumented"] == [] and summary["stale"] == []
    assert summary["registered"] >= 100


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", os.path.join(REPO_ROOT, "tools", "check_docs.py"))
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)
    return check_docs


def test_check_docs_detects_missing_metric():
    # Remove one documented name; the checker must name it as missing.
    with open(os.path.join(REPO_ROOT, "docs", "OBSERVABILITY.md")) as handle:
        doc = handle.read()
    broken = doc.replace("`core.nvcache.hit_ratio`", "`(redacted)`")
    assert broken != doc
    check_docs = _load_check_docs()
    missing = check_docs.registered_names() \
        - check_docs.documented_names(broken)
    assert "core.nvcache.hit_ratio" in missing


def test_check_docs_detects_missing_path():
    # Only backticked repository paths count; `repro/` resolves under src/.
    found = _load_check_docs().missing_paths(
        "`tests/sim/test_core.py::test_x` and `repro/sim/core.py` exist, "
        "`python tools/no_such_tool.py --json` and `repro/sim/gone.py` "
        "do not; tests/prose/gone.py and `tests/sim/test_*.py` are not "
        "checked.")
    assert found == {"tools/no_such_tool.py", "repro/sim/gone.py"}
    assert check_json(["tools/check_docs.py"])["missing_paths"] == []


def test_check_docs_knows_which_trace_names_call_sites_emit():
    # Literal names, a conditional expression and a variable (pread's
    # hit/miss span) all resolve; a name nobody emits does not, which is
    # what makes a dead vocabulary entry fail the check.
    check_docs = _load_check_docs()
    emitted = check_docs.emitted_trace_names()
    assert {"libc.pwrite", "kernel.syscall", "core.read_hit",
            "core.read_miss"} <= emitted
    assert "block.trim" not in emitted
    conditional = ast.parse(
        "def wait(env, quota):\n"
        "    env.tracer.charge(env, 'core', 'quota_wait' if quota\n"
        "                      else 'admission_wait', 0.0)\n").body[0]
    assert check_docs._emitted_by(conditional) == {
        "core.quota_wait", "core.admission_wait"}
    assert check_json(["tools/check_docs.py"])["dead"] == []


def test_metrics_report_json_export():
    snapshot = json.loads(check(["tools/metrics_report.py", "--size-mib", "1",
                                 "--export", "json"]).stdout)
    by_name = {m["name"]: m for m in snapshot["metrics"]}
    assert by_name["core.nvcache.writes"]["value"] > 0


def test_trace_report_tree_and_export(tmp_path):
    base = ["tools/trace_report.py", "--size-mib", "0.25"]
    first_trace = check([*base, "--list"]).stdout.split()[1]
    check([*base, "--trace", first_trace])
    export_path = tmp_path / "trace.json"
    check([*base, "--export", str(export_path)])
    with open(export_path) as handle:
        events = json.load(handle)["traceEvents"]
    phases = {event["ph"] for event in events}
    assert {"M", "X", "s", "f"} <= phases  # metadata, spans, flow arrows


def test_trace_report_json_summary():
    summary = check_json(["tools/trace_report.py", "--size-mib", "0.25"])
    assert summary["spans"] > 0 and summary["dropped"] == 0
    assert "libc.pwrite" in summary["spans_by_name"]
    assert summary["attribution"]


def test_trace_report_attribution_json_schema():
    payload = check_json(["tools/trace_report.py", "--size-mib", "0.25",
                          "--attribution"])
    assert payload["schema"] == "repro.attribution/1"
    assert payload["total_ps"] == sum(payload["segments_ps"].values())
    assert all(isinstance(v, int) for v in payload["segments_ps"].values())

