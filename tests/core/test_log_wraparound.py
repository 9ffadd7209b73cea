"""The circular log's hardest paths: wraparound under load, crash after
wrap, recovery from a ring whose tail is mid-ring."""


from repro.kernel import O_CREAT, O_WRONLY

from .test_recovery import CFG, crash_and_recover, fresh_stack, read_file


def test_sustained_writes_wrap_the_ring_many_times():
    env, _kernel, _ssd, _nvmm, nv = fresh_stack()  # 128-entry log
    total_writes = CFG.log_entries * 5

    def body():
        fd = yield from nv.open("/wrap", O_CREAT | O_WRONLY)
        for i in range(total_writes):
            yield from nv.pwrite(fd, bytes([i % 251]) * 256, (i % 64) * 512)
        yield nv.cleanup.request_drain()
        nv.check_invariants()
        return True

    assert env.run_process(body()) is True
    assert nv.log.head == total_writes
    assert nv.log.used() == 0
    assert nv.stats.log_full_waits > 0


def test_crash_after_wrap_recovers_only_live_suffix():
    """After several wraps, only the un-retired suffix is replayed —
    retired slots were durably cleared."""
    env, kernel, ssd, nvmm, nv = fresh_stack()

    def body():
        fd = yield from nv.open("/wrap", O_CREAT | O_WRONLY)
        # Fill + drain a few rings' worth.
        for i in range(CFG.log_entries * 3):
            yield from nv.pwrite(fd, b"old" + bytes([i % 250]), i % 5000)
        yield nv.cleanup.request_drain()
        # Now a fresh, unretired suffix:
        nv.cleanup.stop()
        yield from nv.pwrite(fd, b"SUFFIX-1", 100)
        yield from nv.pwrite(fd, b"SUFFIX-2", 200)

    env.run_process(body())
    assert nv.log.persistent_tail() == CFG.log_entries * 3
    env2, kernel2, _nvmm2, report = crash_and_recover(env, kernel, ssd, nvmm)
    assert report.entries_applied == 2
    data = read_file(env2, kernel2, "/wrap", 300)
    assert data[100:108] == b"SUFFIX-1"
    assert data[200:208] == b"SUFFIX-2"


def test_group_straddling_ring_boundary():
    """A multi-entry group whose slots wrap around the ring end must
    stay atomic through commit, cleanup, and recovery."""
    env, kernel, ssd, nvmm, nv = fresh_stack()
    big = bytes(range(256)) * 6  # 1536 B = 3 entries of 512

    def body():
        fd = yield from nv.open("/ring", O_CREAT | O_WRONLY)
        # Position the head two slots before the ring boundary.
        while nv.log.head % CFG.log_entries != CFG.log_entries - 2:
            yield from nv.pwrite(fd, b"pad", 0)
        yield nv.cleanup.request_drain()
        nv.cleanup.stop()
        # This group occupies slots N-2, N-1, 0 (wrapping).
        yield from nv.pwrite(fd, big, 10_000)

    env.run_process(body())
    slots = [(nv.log.head - 3 + i) % CFG.log_entries for i in range(3)]
    assert slots[2] < slots[0]  # really wrapped
    assert all(nv.log.is_committed(nv.log.head - 3 + i) for i in range(3))
    env2, kernel2, _nvmm2, report = crash_and_recover(env, kernel, ssd, nvmm)
    assert report.entries_applied == 3
    data = read_file(env2, kernel2, "/ring", 10_000 + len(big))
    assert data[10_000:] == big


def test_log_full_with_stopped_cleanup_blocks_until_restart():
    env, _kernel, _ssd, _nvmm, nv = fresh_stack()
    nv.cleanup.stop()
    progress = []

    def writer():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        for i in range(CFG.log_entries + 10):
            yield from nv.pwrite(fd, b"b" * 128, i * 128)
            progress.append(i)

    def restarter():
        yield env.timeout(0.01)
        assert len(progress) == CFG.log_entries  # writer is stuck
        nv.cleanup.start()

    def main():
        writer_proc = env.spawn(writer())
        restart_proc = env.spawn(restarter())
        yield writer_proc.join()
        yield restart_proc.join()
        return True

    assert env.run_process(main()) is True
    assert len(progress) == CFG.log_entries + 10
