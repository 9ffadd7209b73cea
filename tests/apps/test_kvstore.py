"""Tests for MiniRocks: LSM semantics, WAL recovery, compaction,
bloom filters — on both libcs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import KVOptions, MiniRocks
from repro.apps.kvstore import BloomFilter, Memtable, SSTable, SSTableWriter, WriteAheadLog

from .conftest import plain_stack


SMALL = KVOptions(memtable_bytes=2048, level_limit=2)


def test_put_get_roundtrip(any_libc):
    env, libc = any_libc

    def body():
        db = yield from MiniRocks.open(libc, "/kv", SMALL)
        yield from db.put(b"alpha", b"1")
        yield from db.put(b"beta", b"2")
        value = yield from db.get(b"alpha")
        yield from db.close()
        return value

    assert env.run_process(body()) == b"1"


def test_overwrite_returns_newest(any_libc):
    env, libc = any_libc

    def body():
        db = yield from MiniRocks.open(libc, "/kv", SMALL)
        for generation in range(30):
            yield from db.put(b"hot-key", f"gen-{generation}".encode())
        value = yield from db.get(b"hot-key")
        yield from db.close()
        return value

    assert env.run_process(body()) == b"gen-29"


def test_get_missing_returns_none(any_libc):
    env, libc = any_libc

    def body():
        db = yield from MiniRocks.open(libc, "/kv", SMALL)
        yield from db.put(b"exists", b"yes")
        value = yield from db.get(b"missing")
        yield from db.close()
        return value

    assert env.run_process(body()) is None


def test_delete_hides_older_versions(any_libc):
    env, libc = any_libc

    def body():
        db = yield from MiniRocks.open(libc, "/kv", SMALL)
        yield from db.put(b"k", b"v")
        # Push it into an sstable, then delete.
        for i in range(60):
            yield from db.put(f"filler{i:04d}".encode(), b"x" * 32)
        yield from db.delete(b"k")
        value = yield from db.get(b"k")
        yield from db.close()
        return value, db.stats.flushes

    value, flushes = env.run_process(body())
    assert value is None
    assert flushes >= 1  # the old version really is in a table


def test_flush_and_compaction_preserve_data(any_libc):
    env, libc = any_libc
    n = 300

    def body():
        db = yield from MiniRocks.open(libc, "/kv", SMALL)
        for i in range(n):
            yield from db.put(f"key{i:06d}".encode(), f"val{i}".encode())
        missing = []
        for i in range(n):
            value = yield from db.get(f"key{i:06d}".encode())
            if value != f"val{i}".encode():
                missing.append(i)
        stats = db.stats
        yield from db.close()
        return missing, stats.flushes, stats.compactions

    missing, flushes, compactions = env.run_process(body())
    assert missing == []
    assert flushes >= 3
    assert compactions >= 1


def test_overwrites_across_flushes_and_compaction_read_newest(any_libc):
    """Regression: compaction merged the older level over the newer one,
    so a key rewritten after its first version reached the next level
    read back stale once the two met in a merge."""
    env, libc = any_libc
    keys = 20

    def body():
        db = yield from MiniRocks.open(libc, "/kv", SMALL)

        def write_round(generation):
            for i in range(keys):
                yield from db.put(f"key{i:04d}".encode(),
                                  f"gen{generation}-{i}".encode())
            # Distinct filler keys push the round through several
            # flushes and at least one compaction into the next level.
            for i in range(200):
                yield from db.put(f"fill{generation}-{i:04d}".encode(), b"x" * 32)

        yield from write_round(0)
        before = db.stats.compactions
        yield from write_round(1)
        stale = []
        for i in range(keys):
            value = yield from db.get(f"key{i:04d}".encode())
            if value != f"gen1-{i}".encode():
                stale.append((i, value))
        stats = db.stats
        yield from db.close()
        return stale, stats.flushes, before, stats.compactions

    stale, flushes, before, compactions = env.run_process(body())
    assert flushes >= 2 and before >= 1 and compactions > before
    assert stale == []


def test_reopen_recovers_from_manifest_and_wal(any_libc):
    env, libc = any_libc

    def body():
        db = yield from MiniRocks.open(libc, "/kv", SMALL)
        for i in range(80):
            yield from db.put(f"key{i:04d}".encode(), f"v{i}".encode())
        # Do NOT close: some data only in the WAL + memtable.
        in_memtable = len(db.memtable)
        yield from db.wal.close()
        del db
        db2 = yield from MiniRocks.open(libc, "/kv", SMALL)
        values = []
        for i in range(80):
            values.append((yield from db2.get(f"key{i:04d}".encode())))
        yield from db2.close()
        return in_memtable, values

    in_memtable, values = env.run_process(body())
    assert in_memtable > 0  # the test really exercised WAL recovery
    assert values == [f"v{i}".encode() for i in range(80)]


def test_tombstones_dropped_at_bottom_level():
    env, _kernel, libc = plain_stack()

    def body():
        options = KVOptions(memtable_bytes=512, level_limit=1, max_levels=2)
        db = yield from MiniRocks.open(libc, "/kv", options)
        yield from db.put(b"dead", b"walking")
        yield from db.delete(b"dead")
        for i in range(200):
            yield from db.put(f"k{i:05d}".encode(), b"x" * 16)
        # Bottom-level table should contain no tombstones.
        bottom = db.levels[-1]
        assert bottom, "compaction never reached the bottom level"
        items = yield from bottom[0].scan_all()
        yield from db.close()
        return [value for _key, value in items]

    values = env.run_process(body())
    assert None not in values


def test_scan_ordered(any_libc):
    env, libc = any_libc

    def body():
        db = yield from MiniRocks.open(libc, "/kv", SMALL)
        import random
        rng = random.Random(7)
        keys = [f"key{i:05d}".encode() for i in range(100)]
        for key in rng.sample(keys, len(keys)):
            yield from db.put(key, b"v:" + key)
        rows = yield from db.scan(b"key00040", 10)
        yield from db.close()
        return rows

    rows = env.run_process(body())
    assert [key for key, _ in rows] == [f"key{i:05d}".encode() for i in range(40, 50)]
    assert all(value == b"v:" + key for key, value in rows)


def test_wal_sync_mode_costs_more_than_nosync():
    env1, _k1, libc1 = plain_stack()
    env2, _k2, libc2 = plain_stack()

    def workload(env, libc, sync):
        def body():
            options = KVOptions(sync=sync, memtable_bytes=1 << 22)
            db = yield from MiniRocks.open(libc, "/kv", options)
            start = env.now
            for i in range(50):
                yield from db.put(f"key{i:04d}".encode(), b"p" * 64)
            elapsed = env.now - start
            yield from db.close()
            return elapsed

        return env.run_process(body())

    sync_time = workload(env1, libc1, True)
    nosync_time = workload(env2, libc2, False)
    assert sync_time > 5 * nosync_time


def test_wal_replay_stops_at_torn_tail():
    env, kernel, libc = plain_stack()

    def body():
        wal = WriteAheadLog(libc, "/wal", sync=False)
        yield from wal.open()
        yield from wal.append(b"k1", b"v1")
        yield from wal.append(b"k2", b"v2")
        yield from wal.close()
        # Corrupt the tail: append garbage simulating a torn write.
        from repro.kernel import O_WRONLY, O_APPEND
        fd = yield from kernel.open("/wal", O_WRONLY | O_APPEND)
        yield from kernel.write(fd, b"\xde\xad\xbe\xef garbage")
        yield from kernel.close(fd)
        records = yield from WriteAheadLog(libc, "/wal").replay()
        return records

    records = env.run_process(body())
    assert records == [(b"k1", b"v1"), (b"k2", b"v2")]


def test_sstable_reader_finds_all_and_only_written_keys():
    env, _kernel, libc = plain_stack()
    items = [(f"{i:06d}".encode(), f"value{i}".encode()) for i in range(0, 500, 3)]

    def body():
        writer = SSTableWriter(libc, "/x.sst")
        yield from writer.write(items)
        table = SSTable(libc, "/x.sst")
        yield from table.open()
        hits, false_hits = 0, 0
        for i in range(500):
            found, value = yield from table.get(f"{i:06d}".encode())
            if i % 3 == 0:
                assert found and value == f"value{i}".encode()
                hits += 1
            elif found:
                false_hits += 1
        yield from table.close()
        return hits, false_hits

    hits, false_hits = env.run_process(body())
    assert hits == len(items)
    assert false_hits == 0


def test_bloom_filter_no_false_negatives():
    keys = [f"bloom-key-{i}".encode() for i in range(1000)]
    bloom = BloomFilter.build(keys)
    assert all(bloom.may_contain(key) for key in keys)


def test_bloom_filter_serialization_roundtrip():
    keys = [f"k{i}".encode() for i in range(123)]
    bloom = BloomFilter.build(keys)
    restored = BloomFilter.from_bytes(bloom.to_bytes())
    assert all(restored.may_contain(key) for key in keys)
    assert restored.bits == bloom.bits


def test_bloom_filter_false_positive_rate_reasonable():
    keys = [f"present-{i}".encode() for i in range(2000)]
    bloom = BloomFilter.build(keys, bits_per_key=10)
    false_positives = sum(
        bloom.may_contain(f"absent-{i}".encode()) for i in range(2000))
    assert false_positives / 2000 < 0.05  # ~1% expected at 10 bits/key


def test_memtable_accounting():
    table = Memtable()
    table.put(b"a", b"12345")
    assert table.bytes_used == 6
    table.put(b"a", b"1")  # replacement shrinks accounting
    assert table.bytes_used == 2
    table.put(b"a", None)  # tombstone
    assert table.bytes_used == 1
    assert table.get(b"a") == (True, None)
    assert table.get(b"b") == (False, None)


@settings(max_examples=20, deadline=None)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["put", "delete"]),
              st.integers(0, 30),
              st.binary(min_size=1, max_size=40)),
    min_size=1, max_size=60))
def test_property_lsm_matches_dict(ops):
    """MiniRocks must behave exactly like a dict, through any sequence of
    flushes and compactions."""
    env, _kernel, libc = plain_stack()
    model = {}

    def body():
        options = KVOptions(memtable_bytes=256, level_limit=2, max_levels=3,
                            sync=False)
        db = yield from MiniRocks.open(libc, "/kv", options)
        for op, key_id, value in ops:
            key = f"key{key_id:03d}".encode()
            if op == "put":
                yield from db.put(key, value)
                model[key] = value
            else:
                yield from db.delete(key)
                model.pop(key, None)
        for key_id in range(31):
            key = f"key{key_id:03d}".encode()
            actual = yield from db.get(key)
            assert actual == model.get(key), (key, actual, model.get(key))
        yield from db.close()
        return True

    assert env.run_process(body()) is True
