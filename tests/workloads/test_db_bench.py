"""Tests for the db_bench workload driver."""

import pytest

from repro.apps import KVOptions, MiniRocks, MiniSqlite
from repro.block import SsdDevice
from repro.fs import Ext4
from repro.kernel import Kernel
from repro.libc import Libc
from repro.sim import Environment
from repro.units import KIB, MIB
from repro.workloads import ALL_BENCHMARKS, DbBench, make_key, make_value


def make_env():
    env = Environment()
    kernel = Kernel(env)
    kernel.mount("/", Ext4(env, SsdDevice(env, size=256 * MIB)))
    return env, Libc(kernel)


def test_make_key_fixed_width_and_ordered():
    assert len(make_key(0)) == 16
    assert make_key(5) < make_key(10) < make_key(100)


def test_make_value_size():
    import random
    value = make_value(random.Random(0), 100)
    assert len(value) == 100


def test_full_suite_on_kvstore():
    env, libc = make_env()
    collected = {}

    def body():
        db = yield from MiniRocks.open(libc, "/db", KVOptions(
            sync=True, memtable_bytes=16 * KIB))
        bench = DbBench(env, db, num=200)
        for name in ALL_BENCHMARKS:
            collected[name] = yield from bench.run(name)
        yield from db.close()

    env.run_process(body())
    assert set(collected) == set(ALL_BENCHMARKS)
    for name, result in collected.items():
        assert result.operations == 200, name
        assert result.elapsed > 0, name
        assert result.ops_per_second > 0, name


def test_fill_benchmarks_actually_persist():
    env, libc = make_env()

    def body():
        db = yield from MiniRocks.open(libc, "/db", KVOptions(sync=False))
        bench = DbBench(env, db, num=100)
        yield from bench.fillseq()
        value = yield from db.get(make_key(50))
        yield from db.close()
        return value

    assert env.run_process(body()) is not None


def test_suite_on_sqldb():
    env, libc = make_env()
    collected = {}

    def body():
        db = yield from MiniSqlite.open(libc, "/b.db")
        bench = DbBench(env, db, num=50)
        for name in ("fillrandom", "readrandom", "readseq"):
            result = yield from bench.run(name)
            collected[name] = result
        yield from db.close()

    env.run_process(body())
    assert collected["fillrandom"].ops_per_second < \
        collected["readrandom"].ops_per_second  # sync writes cost more


def test_unknown_benchmark_rejected():
    env, libc = make_env()

    def body():
        db = yield from MiniRocks.open(libc, "/db")
        bench = DbBench(env, db)
        yield from bench.run("writeeverything")

    with pytest.raises(ValueError):
        env.run_process(body())
