"""Unit tests for the NVMM circular log: allocation, the commit protocol,
group atomicity, the three-step retirement, and the fd table."""

import pytest

from repro.core import (
    COMMIT_FREE,
    COMMIT_LEADER,
    FOLLOWER_BASE,
    NvcacheConfig,
    NvcacheStats,
    NvmmLog,
)
from repro.nvmm import NvmmDevice
from repro.sim import Environment


CFG = NvcacheConfig(log_entries=16, entry_data_size=128, fd_max=8,
                    path_max=64, batch_min=1, batch_max=8)


def make_log(config=CFG):
    env = Environment()
    nvmm = NvmmDevice(env, size=NvmmLog.required_size(config))
    return env, nvmm, NvmmLog(env, nvmm, config, NvcacheStats())


def run(env, gen):
    return env.run_process(gen)


def test_allocation_is_sequential():
    env, _nvmm, log = make_log()

    def body():
        seqs = []
        for _ in range(5):
            seq = yield from log.next_entries(1)
            seqs.append(seq)
        return seqs

    assert run(env, body()) == [0, 1, 2, 3, 4]
    assert log.used() == 5


def test_group_allocation_contiguous():
    env, _nvmm, log = make_log()

    def body():
        first = yield from log.next_entries(3)
        second = yield from log.next_entries(1)
        return first, second

    first, second = run(env, body())
    assert first == 0
    assert second == 3


def test_oversized_group_rejected():
    env, _nvmm, log = make_log()

    def body():
        yield from log.next_entries(CFG.log_entries + 1)

    with pytest.raises(ValueError):
        run(env, body())


def test_fill_and_read_roundtrip():
    env, _nvmm, log = make_log()

    def body():
        seq = yield from log.next_entries(1)
        yield from log.fill_entry(seq, fd=7, offset=4096, data=b"payload")
        yield from log.commit_leader(seq)
        return log.read_header(seq), log.read_data(seq)

    (commit, fd, offset, size), data = run(env, body())
    assert commit == COMMIT_LEADER
    assert (fd, offset, size) == (7, 4096, 7)
    assert data == b"payload"


def test_entry_too_large_rejected():
    env, _nvmm, log = make_log()

    def body():
        seq = yield from log.next_entries(1)
        yield from log.fill_entry(seq, 0, 0, b"x" * (CFG.entry_data_size + 1))

    with pytest.raises(ValueError):
        run(env, body())


def test_uncommitted_entry_not_committed():
    env, _nvmm, log = make_log()

    def body():
        seq = yield from log.next_entries(1)
        yield from log.fill_entry(seq, 1, 0, b"data")
        return seq

    seq = run(env, body())
    assert not log.is_committed(seq)


def test_follower_committed_via_leader():
    env, _nvmm, log = make_log()

    def body():
        leader = yield from log.next_entries(2)
        yield from log.fill_entry(leader, 1, 0, b"a" * 128)
        yield from log.fill_entry(leader + 1, 1, 128, b"b" * 10, leader_seq=leader)
        assert not log.is_committed(leader)
        assert not log.is_committed(leader + 1)
        yield from log.commit_leader(leader)
        return leader

    leader = run(env, body())
    assert log.is_committed(leader)
    assert log.is_committed(leader + 1)
    assert log.read_header(leader + 1)[0] == (leader % CFG.log_entries) + FOLLOWER_BASE


def test_commit_is_durable_after_crash():
    env, nvmm, log = make_log()

    def body():
        seq = yield from log.next_entries(1)
        yield from log.fill_entry(seq, 3, 64, b"durable")
        yield from log.commit_leader(seq)

    run(env, body())
    image = nvmm.crash_image()
    env2 = Environment()
    nvmm2 = NvmmDevice.from_image(env2, image)
    log2 = NvmmLog(env2, nvmm2, CFG)
    assert log2.is_committed(0)
    assert log2.read_data(0) == b"durable"


def test_uncommitted_fill_may_be_lost_but_never_half_committed():
    env, nvmm, log = make_log()

    def body():
        seq = yield from log.next_entries(1)
        yield from log.fill_entry(seq, 3, 64, b"in-flight")
        # crash before commit_leader

    run(env, body())
    image = nvmm.crash_image()
    log2 = NvmmLog(Environment(), NvmmDevice.from_image(Environment(), image), CFG)
    assert not log2.is_committed(0)


def test_writer_blocks_when_full_and_resumes():
    env, _nvmm, log = make_log()
    progress = []

    def writer():
        for i in range(CFG.log_entries + 4):
            seq = yield from log.next_entries(1)
            yield from log.fill_entry(seq, 0, i * 128, b"x" * 128)
            yield from log.commit_leader(seq)
            progress.append(seq)

    def cleaner():
        yield env.timeout(0.01)
        # Retire the first 8 entries.
        yield from log.clear_entries(range(0, 8))
        log.advance_volatile_tail(8)

    env.spawn(writer())
    env.spawn(cleaner())
    env.run()
    assert len(progress) == CFG.log_entries + 4
    assert log.stats.log_full_waits >= 1


def test_wraparound_reuses_slots():
    env, _nvmm, log = make_log()

    def body():
        for i in range(CFG.log_entries * 3):
            seq = yield from log.next_entries(1)
            yield from log.fill_entry(seq, 0, 0, bytes([i % 251]))
            yield from log.commit_leader(seq)
            yield from log.clear_entries([seq])
            log.advance_volatile_tail(seq + 1)
        return log.head

    assert run(env, body()) == CFG.log_entries * 3
    assert log.used() == 0


def test_clear_entries_resets_commit_and_tail():
    env, _nvmm, log = make_log()

    def body():
        for i in range(4):
            seq = yield from log.next_entries(1)
            yield from log.fill_entry(seq, 0, i * 128, b"y")
            yield from log.commit_leader(seq)
        yield from log.clear_entries([0, 1])
        log.advance_volatile_tail(2)

    run(env, body())
    assert log.read_header(0)[0] == COMMIT_FREE
    assert log.read_header(1)[0] == COMMIT_FREE
    assert log.is_committed(2)
    assert log.persistent_tail() == 2
    assert log.volatile_tail == 2


def test_advance_tail_validation():
    env, _nvmm, log = make_log()

    def body():
        yield from log.next_entries(1)

    run(env, body())
    with pytest.raises(ValueError):
        log.advance_volatile_tail(5)  # beyond head


def test_fd_table_roundtrip():
    env, nvmm, log = make_log()

    def body():
        log.paths.set(3, "/tmp/a.db")
        log.paths.set(5, "/tmp/b.db")
        yield from nvmm.psync()

    run(env, body())
    assert log.paths.get(3) == "/tmp/a.db"
    assert log.paths.bound() == {3: "/tmp/a.db", 5: "/tmp/b.db"}
    # Durability of the table:
    log2 = NvmmLog(Environment(), NvmmDevice.from_image(Environment(), nvmm.crash_image()), CFG)
    assert log2.paths.bound() == {3: "/tmp/a.db", 5: "/tmp/b.db"}


def test_fd_table_clear():
    env, nvmm, log = make_log()

    def body():
        log.paths.set(3, "/x")
        yield from nvmm.psync()
        log.paths.clear(3)
        yield from nvmm.psync()

    run(env, body())
    assert log.paths.bound() == {}


def test_fd_out_of_range_rejected():
    env, _nvmm, log = make_log()
    with pytest.raises(ValueError):
        log.paths.get(CFG.fd_max)


def test_required_size_is_sufficient():
    for entries in (4, 64, 1024):
        config = NvcacheConfig(log_entries=entries, entry_data_size=256,
                               fd_max=16, path_max=64, batch_min=1, batch_max=8)
        env = Environment()
        nvmm = NvmmDevice(env, size=NvmmLog.required_size(config))
        log = NvmmLog(env, nvmm, config)  # must not raise MemoryError

        def body():
            seq = yield from log.next_entries(entries)
            yield from log.fill_entry(seq + entries - 1, 0, 0, b"z" * 256)

        env.run_process(body())
