"""db_bench workloads (paper §IV-B, Fig 3).

The paper drives RocksDB with the db_bench tool shipped with LevelDB and
SQLite with a db_bench port. We reproduce the classic benchmark set:

- write-heavy: ``fillseq``, ``fillrandom``, ``overwrite``
- read-heavy:  ``readrandom``, ``readseq``

Keys are 16-byte zero-padded decimals and values 100 random-ish bytes,
db_bench's defaults. "Synchronous mode" (sync=True) makes every write
durable before returning — the fair-comparison setting of Table IV.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator

from ..sim import Environment

KEY_SIZE = 16
VALUE_SIZE = 100

WRITE_BENCHMARKS = ("fillseq", "fillrandom", "overwrite")
READ_BENCHMARKS = ("readrandom", "readseq")
ALL_BENCHMARKS = WRITE_BENCHMARKS + READ_BENCHMARKS


@dataclass
class BenchResult:
    benchmark: str
    operations: int
    elapsed: float
    bytes_moved: int

    @property
    def ops_per_second(self) -> float:
        return self.operations / self.elapsed if self.elapsed else 0.0

    @property
    def bandwidth(self) -> float:
        return self.bytes_moved / self.elapsed if self.elapsed else 0.0


def make_key(index: int) -> bytes:
    return b"%016d" % index


def make_value(rng: random.Random, size: int = VALUE_SIZE) -> bytes:
    return bytes(rng.randrange(256) for _ in range(4)) * (size // 4)


class DbBench:
    """Runs the benchmark set against any object exposing the common
    db interface: put/get (MiniRocks) or insert/select (MiniSqlite)."""

    def __init__(self, env: Environment, db, num: int = 1000, seed: int = 0,
                 value_size: int = VALUE_SIZE, op_overhead: float = 2e-6):
        self.env = env
        self.db = db
        self.num = num
        self.seed = seed
        self.value_size = value_size
        # Application-side CPU per operation (key encoding, block decode,
        # comparator work): without it every read hits pure cache speed
        # and exaggerates small I/O-path differences.
        self.op_overhead = op_overhead
        self._put = getattr(db, "put", None) or db.insert
        self._get = getattr(db, "get", None) or db.select

    # -- individual benchmarks ------------------------------------------------

    def _run(self, benchmark: str, body) -> Generator:
        start = self.env.now
        operations, bytes_moved = yield from body()
        return BenchResult(benchmark, operations, self.env.now - start,
                           bytes_moved)

    def fillseq(self) -> Generator:
        rng = random.Random(self.seed)

        def body():
            moved = 0
            for i in range(self.num):
                yield self.env.timeout(self.op_overhead)
                value = make_value(rng, self.value_size)
                yield from self._put(make_key(i), value)
                moved += KEY_SIZE + len(value)
            return self.num, moved

        result = yield from self._run("fillseq", body)
        return result

    def fillrandom(self) -> Generator:
        rng = random.Random(self.seed + 1)

        def body():
            moved = 0
            for _ in range(self.num):
                yield self.env.timeout(self.op_overhead)
                key = make_key(rng.randrange(self.num))
                value = make_value(rng, self.value_size)
                yield from self._put(key, value)
                moved += KEY_SIZE + len(value)
            return self.num, moved

        result = yield from self._run("fillrandom", body)
        return result

    def overwrite(self) -> Generator:
        result = yield from self.fillrandom()
        return BenchResult("overwrite", result.operations, result.elapsed,
                           result.bytes_moved)

    def readrandom(self) -> Generator:
        rng = random.Random(self.seed + 2)

        def body():
            moved = 0
            for _ in range(self.num):
                yield self.env.timeout(self.op_overhead)
                value = yield from self._get(make_key(rng.randrange(self.num)))
                if value is not None:
                    moved += len(value)
            return self.num, moved

        result = yield from self._run("readrandom", body)
        return result

    def readseq(self) -> Generator:
        def body():
            moved = 0
            for i in range(self.num):
                yield self.env.timeout(self.op_overhead)
                value = yield from self._get(make_key(i))
                if value is not None:
                    moved += len(value)
            return self.num, moved

        result = yield from self._run("readseq", body)
        return result

    def run(self, benchmark: str) -> Generator:
        method = getattr(self, benchmark, None)
        if method is None or benchmark not in ALL_BENCHMARKS:
            raise ValueError(f"unknown benchmark {benchmark!r}")
        result = yield from method()
        return result
