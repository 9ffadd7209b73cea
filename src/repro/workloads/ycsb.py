"""YCSB core workloads (A–F) over the key/value interface.

Not in the paper, but the standard cloud-serving benchmark suite is the
natural extension for a storage-booster evaluation: skewed (Zipfian) key
popularity stresses NVCache's read cache and write combining in ways
db_bench's uniform keys do not.

Workload mixes follow the YCSB core package:

- A: update heavy (50% read / 50% update)
- B: read mostly (95% read / 5% update)
- C: read only
- D: read latest (95% read / 5% insert, reads skewed to recent inserts)
- E: short ranges (95% scan / 5% insert)
- F: read-modify-write (50% read / 50% RMW)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from ..sim import Environment, zipf_ranks
from .db_bench import make_key

WORKLOAD_MIXES = {
    "A": {"read": 0.5, "update": 0.5},
    "B": {"read": 0.95, "update": 0.05},
    "C": {"read": 1.0},
    "D": {"read": 0.95, "insert": 0.05},
    "E": {"scan": 0.95, "insert": 0.05},
    "F": {"read": 0.5, "rmw": 0.5},
}


@dataclass
class YcsbResult:
    workload: str
    operations: int
    elapsed: float
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def ops_per_second(self) -> float:
        return self.operations / self.elapsed if self.elapsed else 0.0


class YcsbWorkload:
    """Runs one YCSB core workload against a put/get/scan store."""

    def __init__(self, env: Environment, db, records: int = 1000,
                 operations: int = 1000, value_size: int = 100,
                 theta: float = 0.99, seed: int = 0,
                 scan_length: int = 10, op_overhead: float = 2e-6,
                 op_log: Optional[List] = None):
        self.env = env
        self.db = db
        self.records = records
        self.operations = operations
        self.value_size = value_size
        self.theta = theta
        self.seed = seed
        self.scan_length = scan_length
        self.op_overhead = op_overhead
        # Optional op-stream capture: when a list is passed, run()
        # appends one (operation, key, value-or-None) tuple per op.
        # Pure observation — the docs/WORKLOADS.md seeding contract
        # (same seed ⇒ byte-identical stream) is pinned against it by
        # tests/workloads/test_ycsb_seeding.py.
        self.op_log = op_log
        self._put = getattr(db, "put", None) or db.insert
        self._get = getattr(db, "get", None) or db.select
        self._scan = getattr(db, "scan", None)
        self._inserted = records  # next insert key for D/E

    def _value(self, rng: random.Random) -> bytes:
        return bytes(rng.randrange(256) for _ in range(4)) * (self.value_size // 4)

    def load(self) -> Generator:
        """The YCSB load phase: insert the initial record set."""
        rng = random.Random(self.seed)
        for i in range(self.records):
            yield from self._put(make_key(i), self._value(rng))

    def run(self, workload: str) -> Generator:
        """The transaction phase. Returns a YcsbResult."""
        mix = WORKLOAD_MIXES.get(workload.upper())
        if mix is None:
            raise ValueError(f"unknown YCSB workload {workload!r}")
        if "scan" in mix and self._scan is None:
            raise ValueError("store does not support scans (workload E)")
        rng = random.Random(self.seed + 17)
        ranks = zipf_ranks(rng, self.records, self.operations, self.theta)
        counts: Dict[str, int] = {}
        start = self.env.now
        for op_index in range(self.operations):
            yield self.env.timeout(self.op_overhead)
            choice = rng.random()
            cumulative = 0.0
            operation = "read"
            for name, fraction in mix.items():
                cumulative += fraction
                if choice < cumulative:
                    operation = name
                    break
            if workload.upper() == "D" and operation == "read":
                # Read-latest: skew towards the most recent inserts.
                key_id = max(0, self._inserted - 1 - ranks[op_index])
            else:
                key_id = ranks[op_index] % max(1, self._inserted)
            key = make_key(key_id)
            value = None
            if operation == "read":
                yield from self._get(key)
            elif operation == "update":
                value = self._value(rng)
                yield from self._put(key, value)
            elif operation == "insert":
                key = make_key(self._inserted)
                value = self._value(rng)
                yield from self._put(key, value)
                self._inserted += 1
            elif operation == "scan":
                yield from self._scan(key, self.scan_length)
            elif operation == "rmw":
                value = self._value(rng)
                yield from self._get(key)
                yield from self._put(key, value)
            counts[operation] = counts.get(operation, 0) + 1
            if self.op_log is not None:
                self.op_log.append((operation, key, value))
        return YcsbResult(workload.upper(), self.operations,
                          self.env.now - start, counts)
