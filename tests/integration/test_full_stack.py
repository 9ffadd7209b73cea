"""Whole-stack integration: legacy databases over NVCache over the
simulated kernel, including crash recovery *through both layers* (NVCache
log replay first, then the application's own journal/WAL recovery)."""


from repro.apps import KVOptions, MiniRocks, MiniSqlite
from repro.block import SsdDevice
from repro.core import Nvcache, NvcacheConfig, NvmmLog, recover
from repro.faults import power_cut
from repro.fs import Ext4
from repro.kernel import Kernel
from repro.libc import Libc, NvcacheLibc
from repro.nvmm import NvmmDevice
from repro.sim import Environment
from repro.units import KIB, MIB

CFG = NvcacheConfig(log_entries=8192, read_cache_pages=128, batch_min=32,
                    batch_max=512, fd_max=512, cleanup_idle_flush=0.005)


def build():
    env = Environment()
    ssd = SsdDevice(env, size=512 * MIB)
    kernel = Kernel(env)
    kernel.mount("/", Ext4(env, ssd))
    nvmm = NvmmDevice(env, size=NvmmLog.required_size(CFG))
    nvcache = Nvcache(env, kernel, nvmm, CFG)
    return env, kernel, ssd, nvmm, nvcache


def crash_and_reboot(env, kernel, ssd, nvmm):
    env2, kernel2, nvmm2 = power_cut(kernel, [ssd], nvmm)
    report = env2.run_process(recover(env2, kernel2, nvmm2, CFG))
    return env2, kernel2, report


def test_kvstore_crash_recovery_through_both_layers():
    """Put records with sync WAL, crash without any drain, recover the
    NVCache log, then reopen the DB: the WAL replay must restore every
    acknowledged record."""
    env, kernel, ssd, nvmm, nvcache = build()
    libc = NvcacheLibc(nvcache)
    nvcache.cleanup.stop()  # worst case: nothing propagated

    def workload():
        db = yield from MiniRocks.open(
            libc, "/kv", KVOptions(sync=True, memtable_bytes=1 * MIB))
        for i in range(120):
            yield from db.put(f"key{i:05d}".encode(), f"value-{i}".encode())
        # no close, no flush: crash now

    env.run_process(workload())
    env2, kernel2, report = crash_and_reboot(env, kernel, ssd, nvmm)
    assert report.entries_applied > 0

    def after():
        db = yield from MiniRocks.open(Libc(kernel2), "/kv", KVOptions(sync=True))
        missing = []
        for i in range(120):
            value = yield from db.get(f"key{i:05d}".encode())
            if value != f"value-{i}".encode():
                missing.append(i)
        yield from db.close()
        return missing, db.stats.wal_replay_records

    missing, replayed = env2.run_process(after())
    assert missing == []
    assert replayed == 120  # everything came back through the WAL


def test_sqlite_committed_txns_survive_crash():
    env, kernel, ssd, nvmm, nvcache = build()
    libc = NvcacheLibc(nvcache)

    def workload():
        db = yield from MiniSqlite.open(libc, "/app.db")
        for i in range(25):
            yield from db.insert(f"row{i:03d}".encode(), f"data{i}".encode())
        # crash without close

    env.run_process(workload())
    env2, kernel2, _report = crash_and_reboot(env, kernel, ssd, nvmm)

    def after():
        db = yield from MiniSqlite.open(Libc(kernel2), "/app.db")
        values = []
        for i in range(25):
            values.append((yield from db.select(f"row{i:03d}".encode())))
        yield from db.close()
        return values

    values = env2.run_process(after())
    assert values == [f"data{i}".encode() for i in range(25)]


def test_sqlite_mid_transaction_crash_rolls_back():
    """Crash inside an explicit transaction: after both recovery layers,
    the partial transaction is invisible and earlier commits survive."""
    env, kernel, ssd, nvmm, nvcache = build()
    libc = NvcacheLibc(nvcache)

    def workload():
        db = yield from MiniSqlite.open(libc, "/app.db")
        yield from db.insert(b"committed", b"before")
        yield from db.begin()
        yield from db.insert(b"torn", b"half")
        # crash inside the transaction (journal exists, db pages may be
        # partially updated after this partial flush):
        for number in sorted(db.pager._dirty):
            yield from libc.pwrite(db.pager.fd, db.pager._dirty[number],
                                   number * 4096)

    env.run_process(workload())
    env2, kernel2, _report = crash_and_reboot(env, kernel, ssd, nvmm)

    def after():
        db = yield from MiniSqlite.open(Libc(kernel2), "/app.db")
        committed = yield from db.select(b"committed")
        torn = yield from db.select(b"torn")
        rollbacks = db.pager.rollbacks
        yield from db.close()
        return committed, torn, rollbacks

    committed, torn, rollbacks = env2.run_process(after())
    assert committed == b"before"
    assert torn is None
    assert rollbacks == 1  # the hot journal was replayed


def test_sustained_mixed_workload_invariants():
    """A longer run mixing both databases on one NVCache instance; all
    internal invariants must hold afterwards and the log must drain."""
    env, kernel, ssd, nvmm, nvcache = build()
    libc = NvcacheLibc(nvcache)

    def workload():
        kv = yield from MiniRocks.open(
            libc, "/kv", KVOptions(sync=True, memtable_bytes=32 * KIB))
        sql = yield from MiniSqlite.open(libc, "/app.db")
        for i in range(150):
            yield from kv.put(f"k{i:04d}".encode(), b"v" * 64)
            if i % 3 == 0:
                yield from sql.insert(f"s{i:04d}".encode(), b"row" * 8)
            if i % 10 == 0:
                value = yield from kv.get(f"k{i // 2:04d}".encode())
                assert value is not None or i == 0
        yield from kv.close()
        yield from sql.close()
        yield nvcache.cleanup.request_drain()
        yield env.timeout(0.05)
        nvcache.check_invariants()
        return True

    assert env.run_process(workload()) is True
    assert nvcache.log.used() == 0
    assert nvcache.tables.deferred_close == set()

    def kernel_view():
        st = yield from kernel.stat("/app.db")
        return st.st_size

    assert env.run_process(kernel_view()) > 0


def test_rollback_journal_sqlite_crash_recovery_through_both_layers():
    """SQLite's rollback journal over NVCache with cleanup stopped: every
    autocommit insert is durable through the NVMM log alone, although
    neither the journal nor the db reached the disk before the crash."""
    env, kernel, ssd, nvmm, nvcache = build()
    libc = NvcacheLibc(nvcache)
    nvcache.cleanup.stop()  # nothing propagated at all

    def workload():
        db = yield from MiniSqlite.open(libc, "/app.db")
        for i in range(20):
            yield from db.insert(f"row{i:03d}".encode(), f"val{i}".encode())
        # crash without close

    env.run_process(workload())
    env2, kernel2, report = crash_and_reboot(env, kernel, ssd, nvmm)
    assert report.entries_applied > 0

    def after():
        db = yield from MiniSqlite.open(Libc(kernel2), "/app.db")
        values = []
        for i in range(20):
            values.append((yield from db.select(f"row{i:03d}".encode())))
        yield from db.close()
        return values

    values = env2.run_process(after())
    assert values == [f"val{i}".encode() for i in range(20)]
