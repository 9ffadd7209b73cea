"""Shared benchmark configuration.

Benchmarks regenerate the paper's tables and figures at a scaled size
(paper bytes / REPRO_SCALE, default 512). Results are printed as
paper-shaped tables; assertions check the qualitative claims (who wins,
by roughly what factor, where the knees fall) rather than absolute
numbers.

REPRO_SCALE vs wall clock: the scale divides *simulated* workload sizes,
not simulated rates — halving REPRO_SCALE roughly doubles the number of
simulated ops, and host wall clock grows with the number of engine
events dispatched, not with simulated seconds (see "Simulator
performance model" in DESIGN.md). At the default scale of 512 the full
benchmark suite is minutes of wall time; at 64 expect closer to an hour.
Simulated results (throughputs, ratios, knees) are scale-stable within
the tolerances asserted here. How fast the simulator itself runs — and
where host time goes, layer by layer — is the job of the two-clock
benchmark (``BENCHMARK.json`` + ``bench/``, see ``bench/README.md``),
not of this directory.

Run with::

    pytest benchmarks/ --benchmark-only -s
    REPRO_SCALE=256 pytest benchmarks/ --benchmark-only -s   # bigger runs
"""

import os

import pytest

from repro.harness import Scale


@pytest.fixture(scope="session")
def scale():
    return Scale(int(os.environ.get("REPRO_SCALE", "512")))


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
