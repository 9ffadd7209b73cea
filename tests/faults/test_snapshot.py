"""Snapshot/restore determinism, over the one ``WORKLOADS`` table: a warm
run (restored from a quiescent checkpoint) must be byte-identical to a
cold run that executed the same two-phase workload from scratch — same
simulated clock, same event sequence counter, same dispatch count, same
NVCache stats, same NVMM and SSD contents, same metrics view, same
crash-point stream — and a single-phase workload must only ever get
cold runs. Also pins the guard rails: snapshots of non-quiescent
machines are refused, and a checkpoint written to disk restores
faithfully in a fresh OS process.
"""

import hashlib
import os
import pickle
import subprocess
import sys
from dataclasses import asdict

import pytest

from repro.faults import (WORKLOADS, Checkpoint, CrashExplorer,
                          CrashPointRecorder, SnapshotError,
                          WarmStartFactory, fio_write_phased, restore_run,
                          take_checkpoint)
from repro.obs import MetricsRegistry
from repro.sim import Environment

TWO_PHASE = sorted(name for name, maker in WORKLOADS.items()
                   if maker().phase_b is not None)
SINGLE_PHASE = sorted(set(WORKLOADS) - set(TWO_PHASE))


def machine_digest(run):
    """Every observable channel of a finished run, as comparable values."""
    registry = MetricsRegistry()
    run.nvcache.register_metrics(registry)
    log = getattr(run.nvcache, "log", None)  # the paging cache has none
    return {
        "now": run.env.now,
        "sequence": run.env._sequence,
        "dispatched": run.env.events_dispatched,
        "stats": asdict(run.nvcache.stats),
        "log": log and (log.head, log.volatile_tail),
        "nvmm_persisted": hashlib.sha256(run.nvmm.persisted_view()).hexdigest(),
        "nvmm_dirty": run.nvmm.dirty_lines(),
        "ssd_durable": run.ssd.durable_snapshot(),
        "oracle": run.oracle.expected_states(),
        "metrics": registry.snapshot_detailed(),
    }


def drive_cold(maker):
    factory = WarmStartFactory(maker())
    run = factory.cold_run()
    recorder = CrashPointRecorder(run.env)
    run.drive(True)
    return run, recorder.points


def drive_warm(maker, checkpoint=None):
    factory = WarmStartFactory(maker(), checkpoint=checkpoint)
    run = factory()
    recorder = CrashPointRecorder(run.env)
    run.drive(True)
    return run, recorder.points, run.crash_point_base


def test_the_table_has_both_kinds():
    assert TWO_PHASE == ["db_bench", "fio", "kvstore"]
    assert SINGLE_PHASE == ["fio-mixed", "fio-paging"]


@pytest.mark.parametrize("name", TWO_PHASE)
def test_warm_run_matches_cold_run_exactly(name):
    maker = WORKLOADS[name]
    cold_run, cold_points = drive_cold(maker)
    warm_run, warm_points, base = drive_warm(maker)

    assert base > 0
    # The warm stream is exactly the cold stream's post-checkpoint
    # suffix: same sites, labels, and simulated times, indices shifted
    # by the prefix length.
    suffix = cold_points[base:]
    assert [(p.site, p.label, p.time) for p in warm_points] == \
        [(p.site, p.label, p.time) for p in suffix]
    assert [p.index + base for p in warm_points] == \
        [p.index for p in suffix]
    assert machine_digest(warm_run) == machine_digest(cold_run)


@pytest.mark.parametrize("name", SINGLE_PHASE)
def test_single_phase_workload_only_gets_cold_runs(name):
    maker = WORKLOADS[name]
    factory = WarmStartFactory(maker())
    assert factory.base_hits == 0
    assert factory.checkpoint() is None
    cold_run, cold_points = drive_cold(maker)
    handed_run, handed_points, base = drive_warm(maker)
    assert base == 0
    assert len(cold_points) > 0
    assert handed_points == cold_points
    assert machine_digest(handed_run) == machine_digest(cold_run)


@pytest.mark.parametrize("trace", [False, True])
def test_warm_explorer_equals_cold_explorer(trace):
    """Full sweep comparison, tracing on and off: every case a warm
    explorer produces (including prefix cases, which silently fall back
    to cold runs) equals the cold explorer's case — and tracing changes
    nothing."""
    def case_dump(result):
        return [(c.point.index, c.point.site, c.point.label, c.point.time,
                 c.variant, c.keep_lines,
                 tuple(sorted(c.case.state.items())),
                 tuple(sorted(c.case.state2.items())),
                 c.case.applied, c.case.applied2)
                for c in result.cases]

    class ColdOnly(WarmStartFactory):
        __call__ = WarmStartFactory.cold_run

    cold = CrashExplorer(ColdOnly(fio_write_phased(), trace=trace),
                         budget=12, drop_subsets=1, seed=0).explore()
    warm = CrashExplorer(WarmStartFactory(fio_write_phased(), trace=trace),
                         budget=12, drop_subsets=1, seed=0).explore()
    assert [str(p) for p in warm.points] == [str(p) for p in cold.points]
    assert case_dump(warm) == case_dump(cold)
    assert warm.ok == cold.ok


def test_checkpoint_restores_to_recorded_position():
    checkpoint = take_checkpoint(fio_write_phased())
    run = restore_run(checkpoint)
    assert run.env.now == checkpoint.now
    assert run.env._sequence == checkpoint.sequence
    assert run.env.events_dispatched == checkpoint.events_dispatched
    assert run.env.pending_events() == []
    assert run.env.crash_points is None and run.env.tracer is None
    # Cross-phase scratch state survived: the fd and the seeded RNG.
    assert "fd" in run.scratch and "rng" in run.scratch


def test_non_quiescent_environment_refuses_to_pickle():
    env = Environment()
    env.schedule_call(1.0, lambda: None)
    with pytest.raises(ValueError, match="non-quiescent"):
        pickle.dumps(env)
    # A cancelled entry does not count as pending.
    seq = env.schedule_call(2.0, lambda: None)
    env.cancel(seq)
    env._cancelled.add(env._sequence - 2)  # cancel the first one too
    assert env.pending_events() == []
    pickle.dumps(env)


def test_restore_in_fresh_process(tmp_path):
    """A checkpoint written to disk by one process restores in another
    and finishes phase B with the exact machine digest the parent's
    in-process cold run produced."""
    path = str(tmp_path / "fio.ckpt")
    checkpoint = take_checkpoint(fio_write_phased())
    checkpoint.save(path)

    child_src = """
import hashlib, sys
from repro.faults import Checkpoint, CrashPointRecorder, WarmStartFactory, fio_write_phased
checkpoint = Checkpoint.load(sys.argv[1])
factory = WarmStartFactory(fio_write_phased(), checkpoint=checkpoint)
run = factory()
recorder = CrashPointRecorder(run.env)
run.drive(True)
stream = "".join(f"{p.site}|{p.label}|{p.time!r};" for p in recorder.points)
print(run.env.now, run.env._sequence, run.env.events_dispatched,
      hashlib.sha256(stream.encode()).hexdigest(),
      hashlib.sha256(run.nvmm.persisted_view()).hexdigest())
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(os.path.join(
        os.path.dirname(__file__), "..", "..", "src"))
    child = subprocess.run([sys.executable, "-c", child_src, path],
                           capture_output=True, text=True, env=env,
                           timeout=120)
    assert child.returncode == 0, child.stderr

    cold_run, cold_points = drive_cold(fio_write_phased)
    base = checkpoint.base_hits
    stream = "".join(f"{p.site}|{p.label}|{p.time!r};"
                     for p in cold_points[base:])
    expected = "%r %d %d %s %s" % (
        cold_run.env.now, cold_run.env._sequence,
        cold_run.env.events_dispatched,
        hashlib.sha256(stream.encode()).hexdigest(),
        hashlib.sha256(cold_run.nvmm.persisted_view()).hexdigest())
    assert child.stdout.split() == expected.split()


def test_checkpoint_is_reused_not_retaken():
    factory = WarmStartFactory(fio_write_phased())
    first = factory.checkpoint()
    assert factory.checkpoint() is first
    # Two independent factories produce semantically equal checkpoints.
    # (Payload *bytes* are not the contract: filesystem device ids come
    # from a process-global counter, so a second machine built in the
    # same process pickles with a different st_dev — by design.)
    other = WarmStartFactory(fio_write_phased()).checkpoint()
    assert (other.base_hits, other.now, other.sequence,
            other.events_dispatched) == (first.base_hits, first.now,
                                         first.sequence,
                                         first.events_dispatched)
    warm_a, points_a, base_a = drive_warm(fio_write_phased, checkpoint=first)
    warm_b, points_b, base_b = drive_warm(fio_write_phased, checkpoint=other)
    assert base_a == base_b
    assert [(p.site, p.label, p.time) for p in points_a] == \
        [(p.site, p.label, p.time) for p in points_b]
    assert machine_digest(warm_a) == machine_digest(warm_b)


def test_checkpoint_load_rejects_foreign_pickles(tmp_path):
    path = str(tmp_path / "bogus.ckpt")
    with open(path, "wb") as f:
        pickle.dump({"not": "a checkpoint"}, f)
    with pytest.raises(SnapshotError):
        Checkpoint.load(path)
