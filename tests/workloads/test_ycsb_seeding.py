"""The ycsb driver's seeding contract (docs/WORKLOADS.md).

Pinned explicitly: same seed ⇒ byte-identical op stream and stats;
different seeds ⇒ independent streams; the op-log capture itself never
perturbs results.
"""

import pytest

from repro.apps import KVOptions, MiniRocks
from repro.block import SsdDevice
from repro.fs import Ext4
from repro.kernel import Kernel
from repro.libc import Libc
from repro.sim import Environment
from repro.units import MIB
from repro.workloads import YcsbWorkload


def run_once(workload="A", seed=0, capture=True, records=60, operations=150):
    env = Environment()
    kernel = Kernel(env)
    kernel.mount("/", Ext4(env, SsdDevice(env, size=256 * MIB)))
    libc = Libc(kernel)
    op_log = [] if capture else None

    def body():
        db = yield from MiniRocks.open(libc, "/db", KVOptions(sync=False))
        ycsb = YcsbWorkload(env, db, records=records, operations=operations,
                            seed=seed, op_log=op_log)
        yield from ycsb.load()
        result = yield from ycsb.run(workload)
        yield from db.close()
        return result

    result = env.run_process(body())
    return env, result, op_log


@pytest.mark.parametrize("workload", ["A", "B", "D", "F"])
def test_same_seed_byte_identical_stream_and_stats(workload):
    _env1, result1, log1 = run_once(workload, seed=11)
    _env2, result2, log2 = run_once(workload, seed=11)
    assert log1 == log2          # op kinds, keys, AND value bytes
    assert result1.counts == result2.counts
    assert result1.elapsed == result2.elapsed


def test_same_seed_identical_clock():
    env1, _r1, _log1 = run_once("A", seed=3)
    env2, _r2, _log2 = run_once("A", seed=3)
    assert env1.now == env2.now
    assert env1.events_dispatched == env2.events_dispatched


def test_distinct_seeds_independent_streams():
    _env1, _r1, log_a = run_once("A", seed=1)
    _env2, _r2, log_b = run_once("A", seed=2)
    assert log_a != log_b
    # Independence, not merely inequality: the key sequences decorrelate.
    keys_a = [key for _op, key, _value in log_a]
    keys_b = [key for _op, key, _value in log_b]
    agreement = sum(1 for a, b in zip(keys_a, keys_b) if a == b)
    assert agreement < len(keys_a) * 0.5


def test_op_log_capture_does_not_perturb_results():
    env_with, result_with, log = run_once("F", seed=5, capture=True)
    env_without, result_without, none_log = run_once("F", seed=5,
                                                     capture=False)
    assert none_log is None
    assert len(log) == result_with.operations
    assert result_with.counts == result_without.counts
    assert result_with.elapsed == result_without.elapsed
    assert env_with.now == env_without.now


def test_op_log_entries_are_well_formed():
    _env, result, log = run_once("A", seed=9)
    assert len(log) == result.operations
    for operation, key, value in log:
        assert operation in ("read", "update", "insert", "scan", "rmw")
        assert isinstance(key, bytes) and len(key) == 16
        if operation in ("update", "insert", "rmw"):
            assert isinstance(value, bytes) and value
        else:
            assert value is None
