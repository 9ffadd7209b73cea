"""Crash-point recording: determinism, coverage, and — most important —
that the hooks are semantically invisible when no recorder is attached."""

import subprocess
import sys

import pytest

from repro.faults import (CrashPointRecorder, CrashWorkload,
                          build_crash_run, fio_write_phased, run_workload)
from repro.sim import Environment


FIO = fio_write_phased()


def fio_run():
    """A fresh machine for the fio workload."""
    return FIO.build()


def drive(run, workload=FIO):
    # raises on a workload exception or a stall
    assert run_workload(run, workload)


def fingerprint(run):
    """Everything an instrumentation bug could perturb."""
    return (
        run.env.now,
        bytes(run.nvmm.persisted_view()),
        run.nvmm.dirty_lines(),
        run.ssd.stats.writes,
        run.ssd.stats.flushes,
        run.nvcache.stats.cleanup_batches,
        run.nvcache.stats.cleanup_entries,
    )


def test_recording_does_not_perturb_the_simulation():
    """Clocks, NVMM contents, and device stats are bit-identical with and
    without a recorder attached: hit() never advances simulated time."""
    bare = fio_run()
    drive(bare)

    recorded = fio_run()
    recorder = CrashPointRecorder(recorded.env, record=True)
    drive(recorded)
    recorder.detach()

    assert recorder.count > 0
    assert fingerprint(bare) == fingerprint(recorded)


def test_normal_runs_do_not_import_the_faults_package():
    """The instrumentation hooks live behind ``env.crash_points`` checks;
    building and running a full stack must not pull in repro.faults."""
    code = (
        "import sys\n"
        "from repro.block import SsdDevice\n"
        "from repro.core import Nvcache, NvcacheConfig, NvmmLog, recover\n"
        "from repro.fs import Ext4\n"
        "from repro.kernel import Kernel\n"
        "from repro.nvmm import NvmmDevice\n"
        "from repro.sim import Environment\n"
        "bad = [m for m in sys.modules if m.startswith('repro.faults')]\n"
        "assert not bad, bad\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_enumeration_is_deterministic():
    first = fio_run()
    rec1 = CrashPointRecorder(first.env, record=True)
    drive(first)
    rec1.detach()

    second = fio_run()
    rec2 = CrashPointRecorder(second.env, record=True)
    drive(second)
    rec2.detach()

    assert rec1.points == rec2.points


def test_fio_run_covers_every_boundary_layer():
    """The drained fio workload passes through NVMM, log, cleanup, block
    and filesystem persistence boundaries."""
    run = fio_run()
    recorder = CrashPointRecorder(run.env, record=True)
    drive(run)
    recorder.detach()

    sites = set(recorder.site_histogram())
    assert {"nvmm.pwb", "nvmm.pfence", "nvmm.psync",
            "core.log.entry_filled", "core.log.commit_word",
            "core.log.committed", "core.log.cleared",
            "core.cleanup.batch_retired",
            "block.write_completed", "block.flush_completed",
            "fs.ext4.journal_commit"} <= sites


def test_armed_trigger_fires_once_and_stops_the_environment():
    run = fio_run()
    recorder = CrashPointRecorder(run.env, record=False)
    seen = []
    recorder.arm(5, lambda: seen.append(run.env.now))
    completed = run_workload(run, FIO, expect_completion=False)
    recorder.detach()

    assert not completed  # stopped mid-flight
    assert recorder.triggered is not None
    assert recorder.triggered.index == 5
    assert seen == [recorder.triggered.time]


def test_only_one_recorder_per_environment():
    env = Environment()
    first = CrashPointRecorder(env, record=False)
    with pytest.raises(RuntimeError):
        CrashPointRecorder(env, record=False)
    first.detach()
    assert env.crash_points is None


def test_probe_annotations_land_on_points():
    def body(run):
        from repro.kernel.fd_table import O_CREAT, O_WRONLY
        fd = yield from run.libc.open("/p", O_CREAT | O_WRONLY)
        yield from run.libc.pwrite(fd, b"x" * 64, 0)
        yield from run.libc.close(fd)

    workload = CrashWorkload(build_crash_run, body)
    run = workload.build()
    recorder = CrashPointRecorder(
        run.env, record=True,
        probe=lambda: {"dirty_lines": run.nvmm.dirty_line_count()})
    drive(run, workload)
    recorder.detach()

    assert any(point.dirty_lines > 0 for point in recorder.points)
