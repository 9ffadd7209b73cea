"""Worker functions for the shard-engine tests.

The engine resolves workers by dotted ``module:callable`` reference
inside the worker process, so everything here must be a top-level,
picklable-argument function — that constraint is exactly what the tests
exercise. The pathological ones simulate the failure modes the engine
must survive: Python exceptions, hung simulations, and workers dying
mid-task (once, or persistently). ``map`` calls one function per run,
so :func:`pick` lets one run mix them.
"""

from __future__ import annotations

import os
import time


def pick(name: str, *args):
    """Call this module's worker ``name`` with ``args``."""
    return globals()[name](*args)


def square(x: int) -> int:
    return x * x


def boom(message: str = "worker exception") -> None:
    raise RuntimeError(message)


def sleepy(seconds: float) -> str:
    time.sleep(seconds)
    return "woke up"


def die(exitcode: int = 3) -> None:
    """Kill the worker process outright — no exception, no result."""
    os._exit(exitcode)


def die_once(marker_path: str, value: int) -> int:
    """Die on the first attempt, succeed on the retry. The marker file
    is the only cross-attempt state (worker processes share nothing)."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as handle:
            handle.write("attempt 1 died here\n")
        os._exit(9)
    return value


def unpicklable() -> object:
    return lambda: None
