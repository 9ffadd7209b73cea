"""The drivers' seeding contract (docs/WORKLOADS.md), over fio and db_bench.

Pinned explicitly: same seed => identical op stream, results and
simulated clock; different seeds => different streams.
"""

from repro.apps import KVOptions, MiniRocks
from repro.block import SsdDevice
from repro.fs import Ext4
from repro.kernel import Kernel
from repro.libc import Libc
from repro.sim import Environment
from repro.units import KIB, MIB
from repro.workloads import DbBench, FioJob, run_fio


def make_env():
    env = Environment()
    kernel = Kernel(env)
    kernel.mount("/", Ext4(env, SsdDevice(env, size=256 * MIB)))
    return env, Libc(kernel)


def run_fio_once(seed):
    env, libc = make_env()
    job = FioJob(rw="randrw", block_size=4 * KIB, size=256 * KIB,
                 file_size=1 * MIB, fsync=4, seed=seed)
    result = run_fio(env, libc, job)
    return env, result


class RecordingDb:
    """Forwards put/get to a MiniRocks and records each call's key and
    value bytes: the op stream db_bench draws from its seed."""

    def __init__(self, db):
        self.db = db
        self.log = []

    def put(self, key, value):
        self.log.append(("put", key, value))
        yield from self.db.put(key, value)

    def get(self, key):
        self.log.append(("get", key, None))
        value = yield from self.db.get(key)
        return value


def run_db_bench_once(seed):
    env, libc = make_env()

    def body():
        db = yield from MiniRocks.open(libc, "/db", KVOptions(
            sync=True, memtable_bytes=16 * KIB))
        recorder = RecordingDb(db)
        bench = DbBench(env, recorder, num=150, seed=seed)
        results = []
        for name in ("fillrandom", "readrandom"):
            results.append((yield from bench.run(name)))
        yield from db.close()
        return recorder.log, results

    log, results = env.run_process(body())
    return env, log, results


def test_fio_same_seed_identical_stream_results_and_clock():
    env1, result1 = run_fio_once(seed=7)
    env2, result2 = run_fio_once(seed=7)
    assert result1.completions == result2.completions
    assert result1 == result2
    assert env1.now == env2.now
    assert env1.events_dispatched == env2.events_dispatched


def test_fio_distinct_seeds_differ():
    _env1, result1 = run_fio_once(seed=1)
    _env2, result2 = run_fio_once(seed=2)
    assert result1.completions != result2.completions


def test_db_bench_same_seed_identical_stream_results_and_clock():
    env1, log1, results1 = run_db_bench_once(seed=11)
    env2, log2, results2 = run_db_bench_once(seed=11)
    assert log1 == log2          # op kinds, keys, AND value bytes
    assert results1 == results2
    assert env1.now == env2.now
    assert env1.events_dispatched == env2.events_dispatched


def test_db_bench_distinct_seeds_differ():
    _env1, log1, _results1 = run_db_bench_once(seed=1)
    _env2, log2, _results2 = run_db_bench_once(seed=2)
    assert log1 != log2
    # Independence, not merely inequality: the key sequences decorrelate.
    keys1 = [key for _op, key, _value in log1]
    keys2 = [key for _op, key, _value in log2]
    agreement = sum(1 for a, b in zip(keys1, keys2) if a == b)
    assert agreement < len(keys1) * 0.5
