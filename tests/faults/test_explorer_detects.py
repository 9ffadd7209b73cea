"""Negative control: the explorer must actually *catch* durability bugs.

The mutation reorders the commit protocol: the commit word is stored and
queued (pwb) but never fenced (no psync) before the write is
acknowledged. Live execution is indistinguishable — loads read the
volatile overlay — but a power cut can now lose acknowledged writes,
which is exactly what durable-after-ack exists to catch.
"""

from repro.core.log import (
    COMMIT_LEADER,
    HEADER_SIZE,
    NvmmLog,
    _HEADER,
)
from functools import partial

from repro.faults import CrashExplorer, CrashWorkload, build_crash_run
from repro.kernel.fd_table import O_CREAT, O_WRONLY


def leaky_commit_leader(self, seq):
    """commit_leader without the final psync: ack precedes durability."""
    addr = self._slot_addr(seq)
    self.nvmm.pfence()
    current = _HEADER.unpack(self.nvmm.load(addr, HEADER_SIZE))
    self.nvmm.store(addr, _HEADER.pack(COMMIT_LEADER, *current[1:]))
    self.nvmm.pwb(addr)
    yield self.env.timeout(0.0)


def sequential_writes(run, ops=8, block_size=1024, fsync_every=4):
    """fio-style two-entry group writes with periodic fsync, then close.
    No drain: that needs the cleanup thread this machine runs without."""
    fd = yield from run.libc.open("/bench.dat", O_CREAT | O_WRONLY)
    for i in range(ops):
        yield from run.libc.pwrite(fd, bytes([i + 1]) * block_size,
                                   i * block_size)
        if (i + 1) % fsync_every == 0:
            yield from run.libc.fsync(fd)
    yield from run.libc.close(fd)


# Cleanup off: entries must still be in the ring when the power cut
# lands, otherwise the bug is masked by propagation to the disk.
workload = CrashWorkload(
    partial(build_crash_run, start_cleanup=False), sequential_writes)


def test_unmutated_control_passes():
    explorer = CrashExplorer(workload, budget=30, drop_subsets=1, seed=3)
    assert explorer.explore().violations == []


def test_commit_reorder_mutation_is_caught(monkeypatch):
    monkeypatch.setattr(NvmmLog, "commit_leader", leaky_commit_leader)
    explorer = CrashExplorer(workload, budget=30, drop_subsets=1, seed=3)
    result = explorer.explore()
    assert result.violations, "explorer failed to catch the lost-ack bug"
    assert any(v.invariant == "durable_after_ack" for v in result.violations)


def test_minimize_shrinks_a_failing_case(monkeypatch):
    """Greedy shrinking lands on a minimal survivor set that still
    reproduces the violation (typically the pure power cut, keep=())."""
    monkeypatch.setattr(NvmmLog, "commit_leader", leaky_commit_leader)
    explorer = CrashExplorer(workload, budget=30, drop_subsets=2, seed=3)
    result = explorer.explore()
    failing = [case for case in result.cases
               if case.violations and case.keep_lines]
    if not failing:  # every failure already minimal — nothing to shrink
        return
    smallest = explorer.minimize(failing[0])
    assert smallest.violations
    assert len(smallest.keep_lines) <= len(failing[0].keep_lines)
