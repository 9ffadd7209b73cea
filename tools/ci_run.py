#!/usr/bin/env python
"""CI suite orchestrator: one entry point for every gate the workflow
runs, reproducible locally with the same commands and exit codes.

Suites (``--suite``, repeatable):

- ``lint``    — ``ruff check`` (+ format check, advisory); degrades to a
  ``compileall`` syntax pass where ruff is not installed.
- ``tier1``   — the ROADMAP tier-1 gate: ``PYTHONPATH=src python -m
  pytest -x -q``.
- ``docs``    — ``smoke -m docs_check`` (docs drift, dashboards,
  examples).
- ``crash``   — ``smoke -m crash_smoke`` (budgeted crash sweeps; honours
  ``--jobs`` via ``REPRO_CRASH_JOBS``).
- ``sweeps``  — the four crash workloads explored end-to-end with
  ``--check --json``, plus the three phased workloads swept again in
  snapshot warm-start mode (``--warm-start``, docs/CRASH_TESTING.md),
  fanned out across ``--jobs`` worker processes by ``repro.parallel``
  and aggregated from their JSON summaries. The warm/cold and
  sequential/sharded byte-identity gates live in ``smoke -m
  crash_smoke`` and ``tests/faults/test_snapshot.py``.
- ``tenancy`` — the multi-tenant fairness gate (docs/MULTITENANCY.md):
  a 64-tenant bursty quota-constrained smoke through
  ``tools/tenant_report.py --check`` (every request served, Jain index
  and starvation gauge within thresholds), then ``--verify-sharding``
  proving a 4-seed sweep is byte-identical sharded over ``--jobs 4``
  vs sequential.
- ``fuzz``    — the coverage-guided fuzzing gate (docs/FUZZING.md): a
  fixed-seed budgeted campaign through ``tools/fuzz.py run --check``,
  the collector-purity gate (the coverage hook must not perturb
  simulated clocks or stats), and the jobs-1-vs-jobs-4 byte-identity
  pin from ``tests/fuzz/test_determinism.py``. With
  ``REPRO_FUZZ_CORPUS=<dir>`` the campaign writes its corpus there and
  seeds itself from whatever a previous run (or the CI cache) left
  behind (``--reuse-corpus``, docs/FUZZING.md).
- ``policy``  — the policy-lab gate (docs/POLICIES.md): **required** —
  ``tools/policy_report.py --check`` asserts the Logging-vs-Paging
  crossover lands on the expected winner per mix, the paging-mode
  crash sweep (``tools/crash_explore.py --workload fio-paging
  --check``) proves the five durability invariants hold for the page
  table, and the mode-equivalence property tests pin logging/paging
  byte-identity after recovery alongside the facade contract table
  (every ``CACHE_MODES`` mode shows the same POSIX surface; no shared
  method is forked back into a mode).
- ``capacity`` — the capacity-explorer gate (docs/CAPACITY.md):
  **required** — ``tools/capacity_report.py --check --jobs 2`` sweeps
  the seeded demo grid sharded over two workers and asserts its
  documented expectations (dominant segments, the tenant-axis knee,
  where latency moved when the log doubled) plus the standing
  invariants (every cell completes, every diff exact); the
  sequential-vs-sharded byte-identity pins live in
  ``tests/capacity/test_determinism.py`` inside tier 1.
- ``bench``   — ``tools/bench_engine.py --check``: **required** — exit 1
  on a >20% events/sec regression against the newest history entry in
  the committed ``BENCH_engine.json``. The threshold is wide enough to
  clear shared-runner noise; a genuine engine slowdown must not merge
  silently (re-baseline deliberately with ``--update`` instead).
- ``all``     — everything above, in that order.

Examples::

    PYTHONPATH=src python tools/ci_run.py --suite tier1
    python tools/ci_run.py --suite sweeps --jobs 4 --json
    python tools/ci_run.py --suite all --junit ci.xml
    python tools/ci_run.py --suite tier1 --dry-run

``--json`` reports per-step wall-clock seconds, the run's total wall
clock, and any cache-hit stats a step emitted as ``::cache::``-marked
JSON lines (the fuzz corpus reuse path emits one), so CI caching is
observable straight from job logs.

Exit codes: **0** every required step passed (advisory failures are
reported but do not fail the run), **1** a required step failed,
**2** usage or orchestrator error.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional
from xml.sax.saxutils import escape

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.parallel import ShardEngine, Task  # noqa: E402
from repro.parallel.procs import run_command  # noqa: E402

SRC_ENV = {"PYTHONPATH": "src"}


@dataclass
class Step:
    """One command of a suite. ``fanout`` steps within a suite run
    concurrently through the shard engine; others run sequentially.
    ``advisory`` failures are reported but do not affect the exit code."""

    name: str
    argv: List[str]
    env_extra: Dict[str, str] = field(default_factory=dict)
    advisory: bool = False
    fanout: bool = False
    timeout: Optional[float] = None

    def display(self) -> str:
        prefix = "".join(f"{key}={value} "
                         for key, value in sorted(self.env_extra.items()))
        return prefix + shlex.join(self.argv)


@dataclass
class StepResult:
    step: Step
    returncode: int
    seconds: float
    stdout: str = ""
    stderr: str = ""

    @property
    def ok(self) -> bool:
        return self.returncode == 0

    @property
    def status(self) -> str:
        if self.ok:
            return "pass"
        return "warn" if self.step.advisory else "FAIL"

    def cache_stats(self) -> List[Dict]:
        """Cache-hit stats the step self-reported as ``::cache:: {json}``
        lines (e.g. ``tools/fuzz.py run --reuse-corpus``)."""
        stats = []
        for line in (self.stdout + "\n" + self.stderr).splitlines():
            line = line.strip()
            if not line.startswith("::cache::"):
                continue
            try:
                stats.append(json.loads(line[len("::cache::"):]))
            except json.JSONDecodeError:
                continue
        return stats


def _py(*argv: str) -> List[str]:
    return [sys.executable, *argv]


def _ruff_available() -> bool:
    import importlib.util
    import shutil
    return (shutil.which("ruff") is not None
            or importlib.util.find_spec("ruff") is not None)


def lint_steps() -> List[Step]:
    if _ruff_available():
        return [
            Step("ruff-check", ["ruff", "check", "."]),
            Step("ruff-format", ["ruff", "format", "--check", "."],
                 advisory=True),
        ]
    return [Step("compileall (ruff unavailable)",
                 _py("-m", "compileall", "-q", "src", "tools", "benchmarks",
                     "smoke", "tests", "examples"))]


def fuzz_corpus_args() -> List[str]:
    """Corpus-reuse arguments for the fuzz campaign when the caller
    (the CI workflow, via ``actions/cache``) designates a corpus
    directory through ``REPRO_FUZZ_CORPUS``."""
    corpus = os.environ.get("REPRO_FUZZ_CORPUS")
    if not corpus:
        return []
    return ["--corpus", corpus, "--reuse-corpus"]


def suite_steps(suite: str, jobs: int) -> List[Step]:
    crash_budgets = {"fio": None, "fio-mixed": None, "db_bench": None,
                     "kvstore": "60"}
    sweeps = []
    for workload in ("fio", "fio-mixed", "db_bench", "kvstore"):
        argv = _py("tools/crash_explore.py", "--workload", workload,
                   "--check", "--json")
        if crash_budgets[workload]:
            argv += ["--budget", crash_budgets[workload]]
        sweeps.append(Step(f"sweep-{workload}", argv, env_extra=dict(SRC_ENV),
                           fanout=True, timeout=600))
    for workload in ("fio", "db_bench", "kvstore"):
        argv = _py("tools/crash_explore.py", "--workload", workload,
                   "--warm-start", "--check", "--json")
        sweeps.append(Step(f"sweep-{workload}-warm", argv,
                           env_extra=dict(SRC_ENV), fanout=True, timeout=600))
    suites = {
        "lint": lint_steps(),
        "tier1": [Step("tier1-pytest", _py("-m", "pytest", "-x", "-q"),
                       env_extra=dict(SRC_ENV))],
        "docs": [Step("smoke-docs", _py("-m", "pytest", "smoke", "-m",
                                        "docs_check", "-q"),
                      env_extra=dict(SRC_ENV))],
        "crash": [Step("smoke-crash", _py("-m", "pytest", "smoke", "-m",
                                          "crash_smoke", "-q"),
                       env_extra={**SRC_ENV,
                                  "REPRO_CRASH_JOBS": str(jobs)})],
        "sweeps": sweeps,
        "tenancy": [
            Step("tenancy-fairness",
                 _py("tools/tenant_report.py", "--check", "--json",
                     "--tenants", "64", "--quota", "8",
                     "--schedule", "bursty"),
                 env_extra=dict(SRC_ENV), timeout=600),
            Step("tenancy-sharding",
                 _py("tools/tenant_report.py", "--verify-sharding",
                     "--seeds", "4", "--jobs", "4"),
                 env_extra=dict(SRC_ENV), timeout=600),
        ],
        "fuzz": [
            Step("fuzz-campaign",
                 _py("tools/fuzz.py", "run", "--seed", "0",
                     "--cases", "64", "--check", *fuzz_corpus_args()),
                 env_extra=dict(SRC_ENV), timeout=600),
            Step("fuzz-collector-gate",
                 _py("-m", "pytest", "tests/fuzz/test_coverage.py", "-q"),
                 env_extra=dict(SRC_ENV), timeout=600),
            Step("fuzz-determinism",
                 _py("-m", "pytest", "tests/fuzz/test_determinism.py", "-q"),
                 env_extra=dict(SRC_ENV), timeout=600),
        ],
        "policy": [
            Step("policy-crossover",
                 _py("tools/policy_report.py", "--check"),
                 env_extra=dict(SRC_ENV), timeout=600),
            Step("policy-paging-sweep",
                 _py("tools/crash_explore.py", "--workload", "fio-paging",
                     "--check", "--json"),
                 env_extra=dict(SRC_ENV), timeout=600),
            Step("policy-equivalence",
                 _py("-m", "pytest", "tests/core/test_mode_equivalence.py",
                     "tests/core/test_facade_contract.py", "-q"),
                 env_extra=dict(SRC_ENV), timeout=600),
        ],
        "capacity": [Step("capacity-grid",
                          _py("tools/capacity_report.py", "--check",
                              "--jobs", "2"),
                          env_extra=dict(SRC_ENV), timeout=600)],
        "bench": [Step("engine-bench", _py("tools/bench_engine.py",
                                           "--check"),
                       env_extra=dict(SRC_ENV))],
    }
    if suite == "all":
        return (suites["lint"] + suites["tier1"] + suites["docs"]
                + suites["crash"] + suites["sweeps"] + suites["tenancy"]
                + suites["fuzz"] + suites["policy"] + suites["capacity"]
                + suites["bench"])
    if suite not in suites:
        raise KeyError(suite)
    return suites[suite]


def run_steps(steps: List[Step], jobs: int) -> List[StepResult]:
    """Sequential steps run in order; consecutive ``fanout`` steps are
    batched through the shard engine (which itself degrades to
    sequential if the host cannot fork — exit codes are data either
    way, so nothing changes but wall clock)."""
    results: List[StepResult] = []
    batch: List[Step] = []

    def flush_batch() -> None:
        if not batch:
            return
        engine = ShardEngine(jobs=min(jobs, len(batch)))
        tasks = [Task(key=(index,), fn="repro.parallel.procs:run_command",
                      args=(step.argv,),
                      kwargs={"cwd": REPO_ROOT, "env_extra": step.env_extra,
                              "timeout": step.timeout})
                 for index, step in enumerate(batch)]
        for outcome in engine.run(tasks):
            step = batch[outcome.key[0]]
            if outcome.ok:
                record = outcome.value
                results.append(StepResult(step, record["returncode"],
                                          record["seconds"],
                                          record["stdout"],
                                          record["stderr"]))
            else:
                results.append(StepResult(step, 70, outcome.wall_seconds,
                                          "", outcome.error))
            report_step(results[-1])
        batch.clear()

    for step in steps:
        if step.fanout:
            batch.append(step)
            continue
        flush_batch()
        started = time.perf_counter()
        record = run_command(step.argv, cwd=REPO_ROOT,
                             env_extra=step.env_extra, timeout=step.timeout)
        results.append(StepResult(step, record["returncode"],
                                  round(time.perf_counter() - started, 3),
                                  record["stdout"], record["stderr"]))
        report_step(results[-1])
    flush_batch()
    return results


def report_step(result: StepResult) -> None:
    print(f"[{result.status:>4}] {result.step.name:<28} "
          f"rc={result.returncode:<3} {result.seconds:7.2f}s  "
          f"{result.step.display()}")
    for stat in result.cache_stats():
        label = stat.get("cache", "cache")
        hit = "hit" if stat.get("hit") else "miss"
        rest = ", ".join(f"{key}={value}" for key, value in sorted(stat.items())
                         if key not in ("cache", "hit"))
        print(f"    cache {label}: {hit} ({rest})")
    if not result.ok:
        tail = (result.stdout + "\n" + result.stderr).strip()
        if tail:
            for line in tail.splitlines()[-25:]:
                print(f"    | {line}")
    sys.stdout.flush()


def summary_payload(requested: List[str],
                    results: List[StepResult]) -> Dict:
    failures = [r for r in results if not r.ok and not r.step.advisory]
    warnings = [r for r in results if not r.ok and r.step.advisory]
    caches = [stat for r in results for stat in r.cache_stats()]
    return {
        "suites": requested,
        "ok": not failures,
        "wall_seconds": round(sum(r.seconds for r in results), 3),
        "steps": [{
            "name": r.step.name,
            "command": r.step.display(),
            "returncode": r.returncode,
            "seconds": r.seconds,
            "status": r.status,
            "advisory": r.step.advisory,
            "cache": r.cache_stats(),
        } for r in results],
        "failures": [r.step.name for r in failures],
        "warnings": [r.step.name for r in warnings],
        "cache_hits": sum(1 for stat in caches if stat.get("hit")),
        "cache_misses": sum(1 for stat in caches if not stat.get("hit")),
    }


def write_junit(path: str, requested: List[str],
                results: List[StepResult]) -> None:
    failures = [r for r in results if not r.ok and not r.step.advisory]
    total_time = sum(r.seconds for r in results)
    lines = ['<?xml version="1.0" encoding="utf-8"?>',
             f'<testsuite name="ci_run:{"+".join(requested)}" '
             f'tests="{len(results)}" failures="{len(failures)}" '
             f'time="{total_time:.3f}">']
    for result in results:
        name = escape(result.step.name, {'"': "&quot;"})
        lines.append(f'  <testcase name="{name}" classname="ci_run" '
                     f'time="{result.seconds:.3f}">')
        if not result.ok:
            tag = "skipped" if result.step.advisory else "failure"
            tail = escape((result.stdout + "\n" + result.stderr)[-4000:])
            lines.append(f'    <{tag} message="exit code '
                         f'{result.returncode}">{tail}</{tag}>')
        lines.append('  </testcase>')
    lines.append('</testsuite>')
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--suite", action="append", required=True,
                        choices=["lint", "tier1", "docs", "crash", "sweeps",
                                 "tenancy", "fuzz", "policy", "capacity",
                                 "bench", "all"],
                        help="suite to run (repeatable)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker processes for fan-out suites "
                             "(0 = all cores)")
    parser.add_argument("--dry-run", action="store_true",
                        help="list every command the suites would run, "
                             "then exit 0")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable summary on stdout")
    parser.add_argument("--junit", metavar="PATH", default=None,
                        help="write a JUnit XML summary to PATH")
    args = parser.parse_args(argv)
    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)

    try:
        steps: List[Step] = []
        for suite in args.suite:
            steps.extend(suite_steps(suite, jobs))
    except KeyError as exc:
        print(f"unknown suite: {exc}", file=sys.stderr)
        return 2

    if args.dry_run:
        for step in steps:
            print(step.display())
        return 0

    try:
        results = run_steps(steps, jobs)
    except Exception as exc:  # orchestrator bug, not a step failure
        print(f"orchestrator error: {exc}", file=sys.stderr)
        return 2

    failures = [r for r in results if not r.ok and not r.step.advisory]
    warnings = [r for r in results if not r.ok and r.step.advisory]
    print(f"\n{len(results)} step(s): {len(results) - len(failures) - len(warnings)} "
          f"passed, {len(failures)} failed, {len(warnings)} advisory-failed")
    if args.junit:
        write_junit(args.junit, args.suite, results)
        print(f"wrote {args.junit}")
    if args.json:
        print(json.dumps(summary_payload(args.suite, results),
                         indent=2, sort_keys=True))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
