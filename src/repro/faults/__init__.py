"""Crash-point enumeration and fault injection (the durability test rig).

Three cooperating pieces (docs/CRASH_TESTING.md):

- the **crash-point registry** — instrumented persistence boundaries
  throughout the stack report to a :class:`CrashPointRecorder` attached
  to the simulation environment (``env.crash_points``); with none
  attached the hooks are semantically invisible;
- the **crash explorer** — enumerates every boundary a workload passes
  through, crashes at each one (with seeded cache-line drop subsets),
  runs recovery, and checks the durability invariants against an
  in-memory oracle;
- the **block fault injector** — deterministic write errors, torn
  writes, and dropped flushes on any block device.

Nothing on the simulated I/O path imports this package (a test pins
it); its importers are ``repro.fuzz``, ``repro.parallel``, the tools
built on those, and the tests.
"""

from .explorer import (CaseResult, CrashExplorer, END_OF_RUN_SITE,
                       ExplorationError, ExplorationResult)
from .injector import BlockFaultInjector
from .invariants import (CrashCase, DEFAULT_INVARIANTS, DurableAfterAck,
                         GroupCommitAtomicity, Invariant, NamespaceReplay,
                         PrefixSemantics, RecoveryIdempotence, Violation,
                         check_case)
from .oracle import FileModelOracle, OracleOp, TrackedNvcacheLibc
from .recorder import CrashPoint, CrashPointRecorder
from .workloads import (SMALL_CONFIG, WORKLOADS, CrashRun, CrashWorkload,
                        build_crash_run, db_bench_phased, fio_mixed_workload,
                        fio_write_phased, kvstore_phased, run_workload)

__all__ = [
    "BlockFaultInjector",
    "CaseResult",
    "CrashCase",
    "CrashExplorer",
    "CrashPoint",
    "CrashPointRecorder",
    "CrashRun",
    "CrashWorkload",
    "DEFAULT_INVARIANTS",
    "DurableAfterAck",
    "END_OF_RUN_SITE",
    "ExplorationError",
    "ExplorationResult",
    "FileModelOracle",
    "GroupCommitAtomicity",
    "Invariant",
    "NamespaceReplay",
    "OracleOp",
    "PrefixSemantics",
    "RecoveryIdempotence",
    "SMALL_CONFIG",
    "TrackedNvcacheLibc",
    "Violation",
    "WORKLOADS",
    "build_crash_run",
    "check_case",
    "db_bench_phased",
    "fio_mixed_workload",
    "fio_write_phased",
    "kvstore_phased",
    "run_workload",
]
