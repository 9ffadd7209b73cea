"""tools/crash_explore.py golden test: the ``--json`` schema documented
in docs/CRASH_TESTING.md, and the ``--minimize`` report format.

The failing-sweep half plants an *unconditionally* leaky group commit
(commit word stored and queued, final ``psync`` skipped) behind a
monkeypatch; ``--jobs 1`` sweeps run in the ShardEngine's in-process
mode, so the patched log is the one the CLI explores.
"""

import importlib.util
import json
import os
import sys

import pytest

import repro.core.log as log_mod
from repro.parallel import cached_explorer

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))

#: Top-level keys of the ``--json`` summary — keep in lockstep with the
#: schema table in docs/CRASH_TESTING.md.
JSON_SCHEMA_KEYS = {"workload", "ok", "points", "explored", "cases",
                    "violations", "by_site", "by_invariant",
                    "failing_cases"}
FAILING_CASE_KEYS = {"point", "site", "label", "variant", "keep_lines",
                     "violations"}


@pytest.fixture(scope="module")
def crash_tool():
    spec = importlib.util.spec_from_file_location(
        "crash_explore_tool",
        os.path.join(REPO_ROOT, "tools", "crash_explore.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules["crash_explore_tool"] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def fresh_explorers():
    """Some sweeps here run on a patched log: an enumeration cached by
    one test must never serve another."""
    cached_explorer.cache_clear()
    yield
    cached_explorer.cache_clear()


def plant_always_leaky_commit(monkeypatch) -> None:
    """Group commit that never drains its commit word: every
    crash-after-ack case loses acknowledged data."""
    def leaky_commit_leader(self, seq):
        addr = self._slot_addr(seq)
        self.nvmm.pfence()
        current = log_mod._HEADER.unpack(
            self.nvmm.load(addr, log_mod.HEADER_SIZE))
        self.nvmm.store(
            addr, log_mod._HEADER.pack(log_mod.COMMIT_LEADER, *current[1:]))
        self._slot_mirror[seq % self.entries] = (seq, log_mod.COMMIT_LEADER)
        self.nvmm.pwb(addr)
        recorder = self.env.crash_points
        if recorder is not None:
            recorder.hit("core.log.commit_word", f"seq {seq}")
        yield self.env.timeout(0.0)   # THE BUG: ack without psync
        recorder = self.env.crash_points
        if recorder is not None:
            recorder.hit("core.log.committed", f"seq {seq}")

    monkeypatch.setattr(log_mod.NvmmLog, "commit_leader",
                        leaky_commit_leader)


def test_json_summary_matches_the_documented_schema(crash_tool, capsys):
    code = crash_tool.main(["--workload", "fio", "--budget", "12",
                            "--json", "--check"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert set(summary) == JSON_SCHEMA_KEYS
    assert summary["workload"] == "fio"
    assert summary["ok"] is True
    assert summary["violations"] == 0
    assert summary["failing_cases"] == []
    # --budget trims the selection (end-of-run case rides on top).
    assert 12 <= summary["explored"] <= 13
    assert summary["cases"] >= summary["explored"]
    assert summary["points"] >= summary["explored"]
    assert all(isinstance(count, int)
               for count in summary["by_site"].values())
    assert summary["by_invariant"] == {}


def test_failing_sweep_json_schema(crash_tool, capsys, monkeypatch):
    plant_always_leaky_commit(monkeypatch)
    code = crash_tool.main(["--workload", "fio", "--budget", "16",
                            "--subsets", "2", "--seed", "0",
                            "--json", "--check"])
    assert code == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["ok"] is False
    assert summary["violations"] > 0
    assert sum(summary["by_invariant"].values()) == summary["violations"]
    # The undrained commit word loses acknowledged data, even on fio's
    # grouped writes where an in-flight pwrite rides along.
    assert "durable_linearizability" in summary["by_invariant"]
    assert any("acknowledged state lost" in violation["message"]
               for case in summary["failing_cases"]
               for violation in case["violations"])
    assert summary["failing_cases"]
    for case in summary["failing_cases"]:
        assert set(case) == FAILING_CASE_KEYS
        assert case["violations"], "failing case without violations"
        for violation in case["violations"]:
            assert set(violation) == {"invariant", "message"}


def test_minimize_shrinks_failing_survivor_sets(crash_tool, capsys,
                                                monkeypatch):
    plant_always_leaky_commit(monkeypatch)
    code = crash_tool.main(["--workload", "fio", "--budget", "16",
                            "--subsets", "2", "--seed", "0",
                            "--minimize", "--check"])
    assert code == 1
    out = capsys.readouterr().out
    assert "failing case(s):" in out
    assert "durable_linearizability:" in out
    assert "acknowledged state lost" in out
    # At least one failing survivor-subset case got shrunk, and the
    # report shows the before -> after line counts.
    assert "minimized survivor set:" in out
    assert "-> " in out


def test_unknown_workload_exits_2(crash_tool, capsys):
    with pytest.raises(SystemExit) as excinfo:
        crash_tool.main(["--workload", "postgres"])
    assert excinfo.value.code == 2
    capsys.readouterr()
