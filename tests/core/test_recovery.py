"""Crash and recovery tests: synchronous durability, durable
linearizability's prefix property, group atomicity under power failure."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import COMMIT_FREE, Nvcache, NvcacheConfig, NvmmLog, recover
from repro.faults import power_cut
from repro.harness.systems import build_stack
from repro.kernel import O_CREAT, O_RDONLY, O_WRONLY

CFG = NvcacheConfig(log_entries=128, entry_data_size=512, read_cache_pages=16,
                    batch_min=4, batch_max=32, fd_max=32, path_max=64,
                    cleanup_idle_flush=0.01, page_size=4096)


def fresh_stack(config=CFG, start_cleanup=True):
    stack = build_stack("nvcache+ssd", config=config)
    nv = stack.nvcache
    if not start_cleanup:
        nv.cleanup.stop()
    return stack.env, stack.kernel, stack.devices["ssd"], nv.nvmm, nv


def crash_and_recover(env, kernel, ssd, nvmm, config=CFG,
                      rng=None, eviction_probability=0.0):
    """Simulate power loss and reboot; returns (env2, kernel2, nvmm2,
    report), ``nvmm2`` being the rebooted device recovery wrote through."""
    image = nvmm.crash_image(rng=rng, eviction_probability=eviction_probability)
    env2, kernel2, nvmm2 = power_cut(kernel, [ssd], nvmm, image)
    report = env2.run_process(recover(env2, kernel2, nvmm2, config))
    return env2, kernel2, nvmm2, report


def read_file(env, kernel, path, size):
    def body():
        fd = yield from kernel.open(path, O_RDONLY)
        data = yield from kernel.pread(fd, size, 0)
        yield from kernel.close(fd)
        return data

    return env.run_process(body())


def test_committed_write_survives_crash():
    env, kernel, ssd, nvmm, nv = fresh_stack(start_cleanup=False)

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"must-survive", 0)

    env.run_process(body())
    env2, kernel2, _nvmm2, report = crash_and_recover(env, kernel, ssd, nvmm)
    assert report.entries_applied == 1
    assert report.files_reopened == 1
    assert read_file(env2, kernel2, "/f", 12) == b"must-survive"


def test_recovery_applies_in_write_order():
    env, kernel, ssd, nvmm, nv = fresh_stack(start_cleanup=False)

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"AAAA", 0)
        yield from nv.pwrite(fd, b"BB", 1)  # overlapping later write wins

    env.run_process(body())
    env2, kernel2, _nvmm2, _report = crash_and_recover(env, kernel, ssd, nvmm)
    assert read_file(env2, kernel2, "/f", 4) == b"ABBA"


def test_uncommitted_entry_ignored_by_recovery():
    env, kernel, ssd, nvmm, nv = fresh_stack(start_cleanup=False)

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"committed", 0)
        # Manually fabricate an uncommitted entry (filled, never committed).
        seq = yield from nv.log.next_entries(1)
        yield from nv.log.fill_entry(seq, fd, 100, b"never-committed")

    env.run_process(body())
    env2, kernel2, _nvmm2, report = crash_and_recover(env, kernel, ssd, nvmm)
    assert report.entries_applied == 1
    # The uncommitted leader's commit word is 0, indistinguishable from a
    # free slot — recovery steps right over it (fixed-size entries).
    data = read_file(env2, kernel2, "/f", 115)
    assert data[:9] == b"committed"
    assert b"never-committed" not in data


def test_group_write_is_all_or_nothing_committed():
    env, kernel, ssd, nvmm, nv = fresh_stack(start_cleanup=False)
    big = bytes(range(256)) * 6  # 1536 bytes = 3 entries of 512

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, big, 0)

    env.run_process(body())
    env2, kernel2, _nvmm2, report = crash_and_recover(env, kernel, ssd, nvmm)
    assert report.entries_applied == 3
    assert read_file(env2, kernel2, "/f", len(big)) == big


def test_group_with_uncommitted_leader_fully_ignored():
    env, kernel, ssd, nvmm, nv = fresh_stack(start_cleanup=False)

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        # Fill a 3-entry group but crash before the leader commit.
        leader = yield from nv.log.next_entries(3)
        for i in range(3):
            yield from nv.log.fill_entry(
                leader + i, fd, i * 512, b"g" * 512,
                leader_seq=None if i == 0 else leader)
        # no commit_leader -> crash

    env.run_process(body())
    env2, kernel2, _nvmm2, report = crash_and_recover(env, kernel, ssd, nvmm)
    assert report.entries_applied == 0
    assert read_file(env2, kernel2, "/f", 512) == b""


def test_recovery_after_partial_cleanup():
    """Entries already propagated AND retired must not be replayed;
    entries still in the log must be."""
    env, kernel, ssd, nvmm, nv = fresh_stack()

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        for i in range(20):
            yield from nv.pwrite(fd, bytes([48 + i % 10]) * 512, i * 512)
        yield nv.cleanup.request_drain()
        # These three stay in the log (cleanup stalls below batch_min
        # until the idle deadline, which we do not reach).
        nv.cleanup.stop()
        yield from nv.pwrite(fd, b"tail-1" * 85 + b"\x00" * 2, 20 * 512)
        yield from nv.pwrite(fd, b"tail-2", 0)

    env.run_process(body())
    assert nvmm and nv.log.used() == 2
    env2, kernel2, _nvmm2, report = crash_and_recover(env, kernel, ssd, nvmm)
    assert report.entries_applied == 2
    data = read_file(env2, kernel2, "/f", 21 * 512)
    assert data[:6] == b"tail-2"
    assert data[6:512] == b"0" * 506
    assert data[20 * 512:20 * 512 + 6] == b"tail-1"


def test_recovered_log_is_empty_and_reusable():
    env, kernel, ssd, nvmm, nv = fresh_stack()

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        for i in range(6):
            yield from nv.pwrite(fd, bytes([65 + i]) * 512, i * 512)
        yield nv.cleanup.request_drain()
        nv.cleanup.stop()
        # Left in the ring, behind a persistent tail past zero.
        yield from nv.pwrite(fd, b"live", 0)

    env.run_process(body())
    assert nv.log.persistent_tail() > 0 and nv.log.used() == 1
    env2, kernel2, nvmm2, report = crash_and_recover(env, kernel, ssd, nvmm)
    assert report.entries_applied == 1

    # The rebooted device holds a pristine log: tail parked at zero, every
    # commit word free, no fd bound to a path.
    log = NvmmLog(env2, nvmm2, CFG)
    assert log.persistent_tail() == 0
    assert [seq for seq in range(CFG.log_entries)
            if log.read_header(seq)[0] != COMMIT_FREE] == []
    assert log.paths.bound() == {}

    # Second life: a fresh NVCache over it writes, crashes and recovers.
    nv2 = Nvcache(env2, kernel2, nvmm2, CFG, start_cleanup=False)

    def second_life():
        fd = yield from nv2.open("/f", O_WRONLY)
        yield from nv2.pwrite(fd, b"again", 512)

    env2.run_process(second_life())
    env3, kernel3, _nvmm3, report = crash_and_recover(env2, kernel2, ssd, nvmm2)
    assert report.entries_applied == 1
    assert read_file(env3, kernel3, "/f", 1024) == \
        b"live" + b"A" * 508 + b"again" + b"B" * 507


def test_multiple_files_recovered():
    env, kernel, ssd, nvmm, nv = fresh_stack(start_cleanup=False)

    def body():
        fd1 = yield from nv.open("/a", O_CREAT | O_WRONLY)
        fd2 = yield from nv.open("/dir-less-b", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd1, b"file-a", 0)
        yield from nv.pwrite(fd2, b"file-b", 0)
        yield from nv.pwrite(fd1, b"more-a", 100)

    env.run_process(body())
    env2, kernel2, _nvmm2, report = crash_and_recover(env, kernel, ssd, nvmm)
    assert report.files_reopened == 2
    assert read_file(env2, kernel2, "/a", 6) == b"file-a"
    assert read_file(env2, kernel2, "/dir-less-b", 6) == b"file-b"
    assert report.applied_by_path == {"/a": 2, "/dir-less-b": 1}


@settings(max_examples=25, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 8000), st.binary(min_size=1, max_size=1200)),
        min_size=1, max_size=15),
    crash_after=st.integers(0, 15),
    seed=st.integers(0, 2**16),
)
def test_property_prefix_durability(writes, crash_after, seed):
    """After a crash at any point, the recovered file equals the result of
    applying exactly the first K completed writes, where K >= the number
    of writes whose pwrite had returned (synchronous durability) — here
    the cleanup thread is off, so K is exactly min(crash_after, len)."""
    env, kernel, ssd, nvmm, nv = fresh_stack(start_cleanup=False)
    completed = min(crash_after, len(writes))

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        for offset, data in writes[:completed]:
            yield from nv.pwrite(fd, data, offset)

    env.run_process(body())
    rng = random.Random(seed)
    env2, kernel2, _nvmm2, _report = crash_and_recover(
        env, kernel, ssd, nvmm, rng=rng, eviction_probability=0.3)

    expected = bytearray()
    for offset, data in writes[:completed]:
        if offset + len(data) > len(expected):
            expected.extend(b"\x00" * (offset + len(data) - len(expected)))
        expected[offset:offset + len(data)] = data

    recovered = read_file(env2, kernel2, "/f", len(expected) + 100)
    assert recovered == bytes(expected)


@settings(max_examples=15, deadline=None)
@given(
    count=st.integers(1, 30),
    drain_at=st.integers(0, 30),
    seed=st.integers(0, 2**16),
)
def test_property_durability_with_cleanup_running(count, drain_at, seed):
    """With the cleanup thread running (some entries propagated, some
    not), every completed write must survive the crash regardless of how
    far propagation got."""
    env, kernel, ssd, nvmm, nv = fresh_stack()
    rng = random.Random(seed)
    writes = [(rng.randrange(0, 6000), bytes([rng.randrange(1, 255)]) * rng.randrange(1, 900))
              for _ in range(count)]

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        for i, (offset, data) in enumerate(writes):
            yield from nv.pwrite(fd, data, offset)
            if i == drain_at:
                yield nv.cleanup.request_drain()

    env.run_process(body())
    env2, kernel2, _nvmm2, _report = crash_and_recover(
        env, kernel, ssd, nvmm, rng=rng, eviction_probability=0.5)

    expected = bytearray()
    for offset, data in writes:
        if offset + len(data) > len(expected):
            expected.extend(b"\x00" * (offset + len(data) - len(expected)))
        expected[offset:offset + len(data)] = data
    recovered = read_file(env2, kernel2, "/f", len(expected) + 100)
    assert recovered == bytes(expected)
