"""The benchmark's own checks, on the ``--smoke`` geometry.

    python -m pytest bench -q        # outside tier-1's testpaths
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run  # first: it puts the checkout's src/ on sys.path
import compare
import drivers
from repro.sim import SimulationError

ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
SEED = 7


def _record(name, trace):
    return run.run_workload(name, SEED, seconds=0.0, trace=trace, smoke=True)


@pytest.fixture(scope="module")
def records():
    """Every workload, both kinds of run, twice."""
    return {(name, trace): (_record(name, trace), _record(name, trace))
            for name in WORKLOADS for trace in (0, 1)}


def test_workloads_match_the_contract():
    assert WORKLOADS == list(drivers.WORKLOADS)
    for entry in CONTRACT["workloads"]:
        assert entry["why"] == drivers.WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_contract_metric_is_emitted(records, name, trace, kind):
    record = records[name, trace][0]
    assert record["correct"] and record["failed"] == 0, record["notes"]
    assert record["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in CONTRACT[kind]}
    emitted = {n: e["unit"] for n, e in record["metrics"].items()}
    assert emitted == declared
    for metric, unit in emitted.items():
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric)
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit)
    if kind == "end_to_end":
        assert all(e["value"] > 0 for e in record["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_simulated_results_and_counts_repeat_exactly(records, name):
    for trace in (0, 1):
        first, second = records[name, trace]
        for metric, entry in first["metrics"].items():
            if (metric.startswith(("sim_", "workloads.", "attr.", "nvmm.",
                                   "core.", "kernel.", "fs.", "block."))
                    or metric.endswith(compare.EXACT_SUFFIXES)):
                if metric.endswith("host_self_share"):
                    continue
                assert second["metrics"][metric]["value"] == entry["value"], metric


@pytest.mark.parametrize("name", WORKLOADS)
def test_host_shares_sum_to_one(records, name):
    metrics = records[name, 1][0]["metrics"]
    shares = [e["value"] for n, e in metrics.items()
              if n.endswith(".host_self_share")]
    assert len(shares) == 16
    assert abs(sum(shares) - 1.0) < 1e-6
    attributed = [e["value"] for n, e in metrics.items() if n.startswith("attr.")]
    assert abs(sum(attributed) - 1.0) < 1e-6


@pytest.mark.parametrize("name", WORKLOADS)
def test_probes_leave_the_simulation_bit_identical(records, name):
    """run.py fails the per-layer run if pass A or B moves a simulated
    result; here the traced run is also held against the untraced one."""
    untraced = records[name, 0][0]["metrics"]
    traced = records[name, 1][0]["metrics"]
    scale = run.Scale(drivers.SMOKE_FACTOR)
    ops = drivers.WORKLOADS[name].ops(scale)
    assert (ops / traced["workloads.sim_elapsed_s"]["value"]
            == untraced["sim_ops_per_s"]["value"])


def test_layer_predictions_hold_on_the_bypass_workload(records):
    metrics = records["fio_randwrite_ssd", 1][0]["metrics"]
    for metric, entry in metrics.items():
        if metric.startswith(("core.", "nvmm.")):
            assert entry["value"] == 0, metric
    assert metrics["kernel.host_self_share"]["value"] > 0


def test_a_driver_that_raises_is_counted_not_fatal(monkeypatch):
    def explode(*_args, **_kwargs):
        raise SimulationError("injected")

    monkeypatch.setattr(drivers, "run_fio", explode)
    for trace in (0, 1):
        record = _record("fio_randwrite_ideal", trace)
        assert not record["correct"]
        assert record["failed"] == record["attempted"] >= 1   # failed share 1.0


def test_a_verification_mismatch_is_a_failed_op(monkeypatch):
    monkeypatch.setattr(drivers, "_written_blocks", lambda job: set())
    record = _record("fio_randwrite_ideal", 0)
    assert not record["correct"]
    assert 0 < record["failed"] < record["attempted"]


def _cli(cwd, *extra):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         "fio_randwrite_ssd", "--seed", "3", "--seconds", "0", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_line_contract(trace, kind):
    done = _cli(ROOT, "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in CONTRACT[kind]]
    for entry in result["metrics"].values():
        assert sorted(entry) == ["unit", "value"]


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ there is
    nothing to measure: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _cli(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -- compare.py -----------------------------------------------------------

def _entry(value, q1=None, q3=None):
    entry = {"value": value, "unit": "x"}
    if q1 is not None:
        entry.update(q1=q1, q3=q3, n=5)
    return entry


def test_compare_verdicts():
    steady = _entry(100.0, 99.0, 101.0)
    assert compare.verdict(steady, _entry(104.0, 103.0, 105.0), "lower", 0.1)[1] == "ok"
    assert compare.verdict(steady, _entry(120.0, 119.0, 121.0), "lower", 0.1)[1] == "regressed"
    assert compare.verdict(steady, _entry(80.0, 79.0, 81.0), "higher", 0.1)[1] == "regressed"
    assert compare.verdict(steady, _entry(120.0, 119.0, 121.0), "higher", 0.1)[1] == "ok"
    noisy = _entry(100.0, 90.0, 110.0)
    assert compare.verdict(noisy, _entry(105.0, 95.0, 115.0), "lower", 0.1)[1] == "unresolved"
    # Wide spread but no overlap: every quartile of B is worse than A's.
    assert compare.verdict(noisy, _entry(150.0, 140.0, 160.0), "lower", 0.1)[1] == "regressed"


def _envelope(host_ops, sim, frames=10.0):
    end_to_end = {m["name"]: _entry(1.0, 1.0, 1.0) for m in CONTRACT["end_to_end"]}
    end_to_end["host_ops_per_s"] = _entry(host_ops, host_ops, host_ops)
    end_to_end["sim_mib_per_s"] = _entry(sim)
    return {"commit": "abc1234", "seed": 1, "smoke": True, "workloads": {
        "w": {"end_to_end": {"metrics": end_to_end},
              "per_layer": {"metrics": {"nvmm.frames_per_op": _entry(frames)}}}}}


@pytest.mark.parametrize("b,code", [
    (_envelope(1000.0, 5.0), 0),
    (_envelope(1100.0, 5.0), 0),            # faster is fine
    (_envelope(700.0, 5.0), 1),             # host regression past the bound
    (_envelope(1000.0, 5.0000001), 1),      # same commit + seed: sim_* exact
    (_envelope(1000.0, 5.0, frames=11.0), 1),
])
def test_compare_exit_code(tmp_path, capsys, b, code):
    paths = []
    for label, envelope in (("a", _envelope(1000.0, 5.0)), ("b", b)):
        paths.append(str(tmp_path / f"{label}.json"))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            json.dump(envelope, handle)
    assert compare.main(paths) == code
    assert "verdict" in capsys.readouterr().out
