"""Workload generators: FIO clone and db_bench."""

from .db_bench import (
    ALL_BENCHMARKS,
    BenchResult,
    DbBench,
    READ_BENCHMARKS,
    WRITE_BENCHMARKS,
    make_key,
    make_value,
)
from .fio import FioJob, FioResult, FioSeries, run_fio

#: Op-mix weights the crash-and-fault fuzzer (``repro.fuzz``) seeds its
#: schedule generator with — one family per I/O shape, mostly shaped
#: like an evaluation driver's syscall stream (fio: sequential pwrite +
#: periodic fsync; db_bench: WAL append + fsync per put; kvstore:
#: appends plus MANIFEST-style rename/unlink churn). ``ycsb`` is the
#: update-heavy overwrite shape of YCSB workload A (scattered pwrites,
#: rare fsync); no YCSB driver exists here, the key names the shape and
#: stays because ``--families`` and ``campaign.json`` record it.
#: Weights are relative; ops absent from a family (e.g. ``recreate``)
#: are only reachable through mutation, which is what makes
#: rarely-exercised recovery paths a coverage signal instead of a
#: baseline guarantee. See docs/FUZZING.md.
FUZZ_SEED_MIXES = {
    "fio": {"pwrite": 6, "fsync": 2},
    "fio-mixed": {"pwrite": 5, "fsync": 2, "ftruncate": 1,
                  "rename": 1, "unlink": 1},
    "db_bench": {"append": 5, "fsync": 5},
    "kvstore": {"append": 4, "fsync": 3, "rename": 1, "unlink": 1,
                "open": 1},
    "ycsb": {"pwrite": 8, "fsync": 1, "open": 1},
}

__all__ = [
    "FioJob",
    "FioResult",
    "FioSeries",
    "run_fio",
    "DbBench",
    "BenchResult",
    "ALL_BENCHMARKS",
    "WRITE_BENCHMARKS",
    "READ_BENCHMARKS",
    "make_key",
    "make_value",
    "FUZZ_SEED_MIXES",
]
