"""Golden digests of the simulated results a refactor must not move.

Each value is the first 16 hex digits of the sha256 of a tool's stdout,
run in-process: ``crash_explore --list-points`` and ``--json`` for every
crash workload (the site stream and the sweep's verdicts) and
``policy_report --check --json`` (every crossover mix through both
cache modes). A digest moves only in a reviewed diff that says why
(docs/CRASH_TESTING.md, "Golden digests").
"""

import hashlib
import importlib.util
import os

import pytest

from repro.faults import WORKLOADS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: workload -> (``--list-points`` digest, ``--json`` digest)
CRASH_DIGESTS = {
    "fio": ("d94f025d5b86fbed", "94fc5509c06ecf8d"),
    "fio-mixed": ("848c4ac464286f85", "60159f87f965f050"),
    "fio-paging": ("3df09e9423c9ccf3", "8ac949b7c666b945"),
    "db_bench": ("ec36a3a5d08c69c1", "e91e9024b7f72af2"),
    "kvstore": ("7ad5c8587b377da0", "ab5d8326596afc48"),
}

POLICY_DIGEST = "2298e49db6300a82"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        f"golden_{name}", os.path.join(REPO_ROOT, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stdout_digest(capsys, tool, argv):
    capsys.readouterr()
    assert tool.main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def crash_explore():
    return load_tool("crash_explore")


def test_every_crash_workload_is_pinned():
    assert sorted(CRASH_DIGESTS) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(CRASH_DIGESTS))
def test_crash_sweep_digests(capsys, crash_explore, workload):
    points, summary = CRASH_DIGESTS[workload]
    assert stdout_digest(capsys, crash_explore,
                         ["--workload", workload, "--list-points"]) == points
    assert stdout_digest(capsys, crash_explore,
                         ["--workload", workload, "--json"]) == summary


def test_policy_report_digest(capsys):
    assert stdout_digest(capsys, load_tool("policy_report"),
                         ["--check", "--json"]) == POLICY_DIGEST
