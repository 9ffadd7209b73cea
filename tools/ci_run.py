#!/usr/bin/env python
"""CI suite orchestrator: one entry point for every gate the workflow
runs, reproducible locally with the same commands and exit codes.

``SUITES`` below is the only spelling of the suite list: ``--suite``
choices, ``all``, the ``--help`` epilog, the workflow matrix in
``.github/workflows/ci.yml`` and the table in docs/CI.md are derived
from or checked against it (``tests/parallel/test_ci_run.py``).
``--dry-run`` prints the exact commands a suite runs.

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
import contextlib
import json
import os
import shlex
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple
from xml.sax.saxutils import escape

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.cli import add_jobs_argument, print_json  # noqa: E402
from repro.faults import WORKLOADS  # noqa: E402
from repro.parallel import ShardEngine  # noqa: E402
from repro.parallel.procs import python_command, run_command  # noqa: E402

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


def _ruff_available() -> bool:
    import importlib.util
    import shutil
    return (shutil.which("ruff") is not None
            or importlib.util.find_spec("ruff") is not None)


def lint_steps() -> List[Step]:
    # The repo's own idiom rules: one spelling of a timed, attributed
    # step (env.delay, spans only, no forward-only libc generators), and
    # no raw non-zero timeout in a modelled layer outside the pollers.
    guards = "tests/core/test_facade_contract.py"
    idioms = _pytest("idiom-guard",
                     f"{guards}::test_one_spelling_of_a_timed_step",
                     f"{guards}::test_raw_timeouts_are_allowlisted_pollers")
    if _ruff_available():
        return [
            Step("ruff-check", ["ruff", "check", "."]),
            Step("ruff-format", ["ruff", "format", "--check", "."],
                 advisory=True),
            idioms,
        ]
    return [Step("compileall (ruff unavailable)",
                 python_command("-m", "compileall", "-q", "src", "tools",
                                "benchmarks", "smoke", "tests", "examples")),
            idioms]


def fuzz_corpus_args() -> List[str]:
    """Corpus-reuse arguments for the fuzz campaign when the caller
    (the CI workflow, via ``actions/cache``) designates a corpus
    directory through ``REPRO_FUZZ_CORPUS``."""
    corpus = os.environ.get("REPRO_FUZZ_CORPUS")
    if not corpus:
        return []
    return ["--corpus", corpus, "--reuse-corpus"]


def _tool(name: str, *argv: str, **options) -> Step:
    """A ``PYTHONPATH=src python ...`` step with the 600 s step deadline
    every tool gate carries."""
    return Step(name, python_command(*argv), env_extra=dict(SRC_ENV),
                timeout=600, **options)


def _pytest(name: str, *argv: str, **env_extra: str) -> Step:
    return Step(name, python_command("-m", "pytest", *argv, "-q"),
                env_extra={**SRC_ENV, **env_extra})


def sweep_steps() -> List[Step]:
    """Every named crash workload explored end to end, exhaustively
    (docs/CRASH_TESTING.md)."""
    return [_tool(f"sweep-{workload}", "tools/crash_explore.py",
                  "--workload", workload, "--check", "--json", fanout=True)
            for workload in WORKLOADS]


#: Suite name -> (one-line description, steps given the ``--jobs``
#: count), in the order ``all`` runs them. Every step is required
#: unless marked ``advisory``.
SUITES: Dict[str, Tuple[str, Callable[[int], List[Step]]]] = {
    "lint": ("`ruff check` + advisory format check (`compileall` where "
             "ruff is missing) + the `env.delay` idiom guards",
             lambda jobs: lint_steps()),
    "tier1": ("the ROADMAP tier-1 gate, `python -m pytest -x -q`",
              lambda jobs: [_pytest("tier1-pytest", "-x")]),
    "docs": ("`smoke -m docs_check`: docs drift, dashboards, tool "
             "commands, examples",
             lambda jobs: [_pytest("smoke-docs", "smoke", "-m",
                                   "docs_check")]),
    "crash": ("`smoke -m crash_smoke`: budgeted crash sweeps, sharded "
              "over `--jobs`",
              lambda jobs: [_pytest("smoke-crash", "smoke", "-m",
                                    "crash_smoke",
                                    REPRO_CRASH_JOBS=str(jobs))]),
    "sweeps": ("every `repro.faults.WORKLOADS` crash workload explored "
               "end to end, fanned out over `--jobs`",
               lambda jobs: sweep_steps()),
    "fuzz": ("fixed-seed fuzz campaign `--check` + collector purity + "
             "jobs-1-vs-4 determinism",
             lambda jobs: [
                 _tool("fuzz-campaign", "tools/fuzz.py", "run", "--seed",
                       "0", "--cases", "64", "--check",
                       *fuzz_corpus_args()),
                 _tool("fuzz-collector-gate", "-m", "pytest",
                       "tests/fuzz/test_coverage.py", "-q"),
                 _tool("fuzz-determinism", "-m", "pytest",
                       "tests/fuzz/test_determinism.py", "-q")]),
    "policy": ("Logging-vs-Paging crossover `--check` + mode "
               "equivalence and facade contract",
               lambda jobs: [
                   _tool("policy-crossover", "tools/policy_report.py",
                         "--check"),
                   _tool("policy-equivalence", "-m", "pytest",
                         "tests/core/test_mode_equivalence.py",
                         "tests/core/test_facade_contract.py", "-q")]),
    "bench": ("the `bench/` suite: every BENCHMARK.json workload on "
              "`--smoke`, protocol and comparator",
              lambda jobs: [_pytest("bench-suite", "bench")]),
}


def suite_steps(suite: str, jobs: int) -> List[Step]:
    names = list(SUITES) if suite == "all" else [suite]
    return [step for name in names for step in SUITES[name][1](jobs)]


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
        outcomes = engine.map(
            "repro.parallel.procs:run_command",
            [(step.argv, REPO_ROOT, step.env_extra, step.timeout)
             for step in batch],
            timeout=None)  # run_command enforces the step's own deadline
        for step, outcome in zip(batch, outcomes):
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
        epilog="suites (`all` runs every one, in this order):\n"
               + "\n".join(f"  {name:<9} {description}"
                           for name, (description, _) in SUITES.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--suite", action="append", required=True,
                        choices=[*SUITES, "all"],
                        help="suite to run (repeatable)")
    add_jobs_argument(parser, default=0,
                      help="worker processes for fan-out suites")
    parser.add_argument("--dry-run", action="store_true",
                        help="list every command the suites would run, "
                             "then exit 0")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable summary on stdout")
    parser.add_argument("--junit", metavar="PATH", default=None,
                        help="write a JUnit XML summary to PATH")
    args = parser.parse_args(argv)
    if args.junit and not os.path.isdir(
            os.path.dirname(os.path.abspath(args.junit))):
        parser.error(f"--junit: no directory to write {args.junit} into")
    steps = [step for suite in args.suite
             for step in suite_steps(suite, args.jobs)]

    if args.dry_run:
        for step in steps:
            print(step.display())
        return 0

    # Progress goes to stderr under --json so stdout is one JSON document.
    progress = (contextlib.redirect_stdout(sys.stderr) if args.json
                else contextlib.nullcontext())
    with progress:
        try:
            results = run_steps(steps, args.jobs)
        except Exception as exc:  # orchestrator bug, not a step failure
            print(f"orchestrator error: {exc}", file=sys.stderr)
            return 2
        failures = [r for r in results if not r.ok and not r.step.advisory]
        warnings = [r for r in results if not r.ok and r.step.advisory]
        print(f"\n{len(results)} step(s): "
              f"{len(results) - len(failures) - len(warnings)} "
              f"passed, {len(failures)} failed, {len(warnings)} advisory-failed")
        if args.junit:
            write_junit(args.junit, args.suite, results)
            print(f"wrote {args.junit}")
    if args.json:
        print_json(summary_payload(args.suite, results))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
