"""Crash-point enumeration and fault injection (the durability test rig).

Three cooperating pieces (docs/CRASH_TESTING.md):

- the **crash-point registry** — instrumented persistence boundaries
  throughout the stack report to a :class:`CrashPointRecorder` attached
  to the simulation environment (``env.crash_points``); with none
  attached the hooks are semantically invisible;
- the **crash explorer** — enumerates every boundary a workload passes
  through, crashes at each one (with seeded cache-line drop subsets),
  runs recovery, and judges the recovered state against an in-memory
  oracle (one judge, two properties);
- the **block fault injector** — deterministic write errors, torn
  writes, and dropped flushes on any block device.

Nothing on the simulated I/O path imports this package (a test pins
it); its importers are ``repro.fuzz``, ``repro.parallel``, the tools
built on those, and the tests.
"""

from .explorer import (CrashExplorer, END_OF_RUN_SITE, ExplorationError,
                       ExplorationResult, power_cut)
from .injector import BlockFaultInjector
from .invariants import CrashCase, Violation, judge
from .oracle import FileModelOracle, OracleOp, TrackedNvcacheLibc
from .recorder import CrashPoint, CrashPointRecorder
from .workloads import (SMALL_CONFIG, WORKLOADS, CrashWorkload,
                        db_bench_phased, fio_mixed_workload,
                        fio_write_phased, kvstore_phased, run_workload)

__all__ = [
    "BlockFaultInjector",
    "CrashCase",
    "CrashExplorer",
    "CrashPoint",
    "CrashPointRecorder",
    "CrashWorkload",
    "END_OF_RUN_SITE",
    "ExplorationError",
    "ExplorationResult",
    "FileModelOracle",
    "OracleOp",
    "SMALL_CONFIG",
    "TrackedNvcacheLibc",
    "Violation",
    "WORKLOADS",
    "db_bench_phased",
    "fio_mixed_workload",
    "fio_write_phased",
    "judge",
    "kvstore_phased",
    "power_cut",
    "run_workload",
]
