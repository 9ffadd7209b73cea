"""The coverage-guided campaign loop.

Generation/batch discipline — the determinism contract:

1. Draw a fixed-size batch of candidate cases from the campaign RNG and
   the corpus-so-far, **before executing any of them**. The candidate
   stream is a pure function of (seed, ingested history), never of
   worker timing.
2. Evaluate the batch — one :meth:`~repro.parallel.ShardEngine.map`
   call per batch, one worker call per case, merged back in batch order
   (in-process at ``jobs=1``). A batch with a case that did not finish
   raises :class:`FuzzShardError`: a campaign with holes in its case
   stream proves nothing and would fork the corpus state.
3. Ingest outcomes in batch order: grow coverage, admit novel-coverage
   cases to the corpus, dedupe + minimize findings.

Because the batch size is a config knob (never derived from ``jobs``),
a campaign's corpus, findings, growth curve and summary are
byte-identical at any worker count (``tests/fuzz/test_determinism.py``).

Fitness signal: the union of line edges from ``repro.core``/``repro.fs``
(see :mod:`repro.fuzz.coverage`) plus ``site:`` edges for enumerated
crash sites. With ``feedback=True`` novel-coverage cases become mutation
parents; with ``feedback=False`` (the ``--no-feedback`` baseline)
parents stay the seed set and the search is blind — coverage is still
*recorded* so the two modes are comparable, it just never steers.

Oracle: ``repro.faults.judge`` (two properties, durable linearizability
and recovery idempotence) over the FileModelOracle, inherited wholesale
via the executor, so one bug is one finding per crash site. Findings
are deduped by (property, crash site) and greedily minimized
in-process: drop schedule ops left-to-right to a fixpoint, then the
fault plan, then the survivor seed, then extra crash fractions —
accepting a shrink only if the same property still trips, under a
bounded execution budget.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

from ..parallel.engine import ShardEngine, raise_unfinished
from ..workloads import FUZZ_SEED_MIXES
from .corpus import corpus_digest
from .executor import reproduces, run_case_task
from .schedule import MIN_OPS, FuzzCase, fresh_case, mutate, seed_cases

#: Fraction of candidates generated from scratch rather than mutated
#: from a parent (keeps the search from collapsing onto one lineage).
FRESH_RATE = 0.15


class FuzzShardError(RuntimeError):
    """One or more cases of a batch did not complete."""


@dataclass(frozen=True)
class FuzzConfig:
    """Campaign knobs. ``time_budget`` (wall seconds, checked between
    batches) is the one knob that breaks cross-run determinism — leave
    it None anywhere byte-identity matters."""

    seed: int = 0
    max_cases: int = 64
    batch: int = 8
    feedback: bool = True
    families: Tuple[str, ...] = tuple(sorted(FUZZ_SEED_MIXES))
    max_ops: int = 12
    minimize: bool = True
    minimize_budget: int = 40
    time_budget: Optional[float] = None

    def __post_init__(self):
        for flag, value, least in (("--cases", self.max_cases, 1),
                                   ("--batch", self.batch, 1),
                                   ("--max-ops", self.max_ops, MIN_OPS)):
            if value < least:
                raise ValueError(f"{flag} must be at least {least}")
        if self.time_budget is not None and not self.time_budget > 0:
            raise ValueError("--time-budget must be above 0 seconds")


@dataclass
class CampaignStats:
    """Plain counters surfaced as ``fuzz.*`` metrics (docs/FUZZING.md)."""

    cases_run: int = 0
    harness_errors: int = 0
    findings: int = 0
    duplicate_findings: int = 0
    minimize_executions: int = 0
    fresh_cases: int = 0
    mutated_cases: int = 0
    spliced_cases: int = 0


@dataclass
class CampaignResult:
    config: FuzzConfig
    stats: CampaignStats
    coverage: Set[str]
    #: admitted cases in ingest order: (case, origin, new_edges)
    corpus: List[Tuple[FuzzCase, str, int]]
    #: finding dicts keyed by (invariant, site)
    findings: Dict[Tuple[str, str], Dict]
    #: coverage growth curve: [cases_run, total_edges] per growth step
    growth: List[List[int]]

    @property
    def ok(self) -> bool:
        return not self.findings

    def finding_list(self) -> List[Dict]:
        return [self.findings[key] for key in sorted(self.findings)]

    def summary(self) -> Dict:
        """The deterministic ``campaign.json`` payload."""
        digests = [case.digest() for case, _, _ in self.corpus]
        sites = sorted(edge for edge in self.coverage
                       if edge.startswith("site:"))
        stats = self.stats
        return {
            "seed": self.config.seed,
            "feedback": self.config.feedback,
            "max_cases": self.config.max_cases,
            "batch": self.config.batch,
            "families": list(self.config.families),
            "cases_run": stats.cases_run,
            "harness_errors": stats.harness_errors,
            "corpus": digests,
            "corpus_digest": corpus_digest(digests),
            "coverage": {
                "edges": len(self.coverage),
                "lines": len(self.coverage) - len(sites),
                "sites": sites,
            },
            "edges": sorted(self.coverage),
            "findings": sorted(finding["digest"]
                               for finding in self.findings.values()),
            "growth": [list(point) for point in self.growth],
            "stats": {
                "findings": stats.findings,
                "duplicate_findings": stats.duplicate_findings,
                "minimize_executions": stats.minimize_executions,
                "fresh_cases": stats.fresh_cases,
                "mutated_cases": stats.mutated_cases,
                "spliced_cases": stats.spliced_cases,
            },
        }


class FuzzEngine:
    """One campaign: seed, search, dedupe, minimize."""

    def __init__(self, config: FuzzConfig = FuzzConfig(),
                 engine: ShardEngine = ShardEngine(jobs=1), registry=None):
        self.config = config
        self.engine = engine
        self.rng = random.Random(f"fuzz:{config.seed}")
        self.stats = CampaignStats()
        self.coverage: Set[str] = set()
        self.seeds: List[FuzzCase] = seed_cases(config.families)
        self.corpus: List[Tuple[FuzzCase, str, int]] = []
        self._corpus_digests: Set[str] = set()
        self.findings: Dict[Tuple[str, str], Dict] = {}
        self.growth: List[List[int]] = []
        if registry is not None:
            register_campaign_metrics(registry, self)

    # -- metrics helpers ----------------------------------------------------

    def site_count(self) -> int:
        return sum(1 for edge in self.coverage if edge.startswith("site:"))

    # -- candidate generation ----------------------------------------------

    def _candidate(self) -> Tuple[FuzzCase, str]:
        rng = self.rng
        pool = ([case for case, _, _ in self.corpus]
                if self.config.feedback else list(self.seeds))
        if not pool or rng.random() < FRESH_RATE:
            self.stats.fresh_cases += 1
            return fresh_case(rng, families=self.config.families,
                              max_ops=self.config.max_ops), "fresh"
        parent = pool[rng.randrange(len(pool))]
        child, used = mutate(rng, parent, pool)
        if "splice" in used:
            self.stats.spliced_cases += 1
            return child, "spliced"
        self.stats.mutated_cases += 1
        return child, "mutated"

    # -- ingest -------------------------------------------------------------

    def _ingest(self, case: FuzzCase, origin: str, outcome: Dict) -> None:
        self.stats.cases_run += 1
        if outcome["error"] is not None:
            self.stats.harness_errors += 1
            return
        new_edges = set(outcome["edges"]) - self.coverage
        if new_edges:
            self.coverage |= new_edges
            digest = case.digest()
            if digest not in self._corpus_digests:
                self._corpus_digests.add(digest)
                self.corpus.append((case, origin, len(new_edges)))
            self.growth.append([self.stats.cases_run, len(self.coverage)])
        for violation in outcome["violations"]:
            key = (violation["invariant"], violation["site"])
            if key in self.findings:
                self.stats.duplicate_findings += 1
                continue
            self.findings[key] = self._make_finding(
                case, violation, len(new_edges))
            self.stats.findings += 1

    def _make_finding(self, case: FuzzCase, violation: Dict,
                      new_edges: int) -> Dict:
        invariant = violation["invariant"]
        minimized, final_violation, executions = (
            self._minimize(case, invariant)
            if self.config.minimize else (case, violation, 0))
        self.stats.minimize_executions += executions
        return {
            "digest": minimized.digest(),
            "case": minimized.to_fields(),
            "invariant": invariant,
            "site": final_violation["site"],
            "label": final_violation["label"],
            "point": final_violation["point"],
            "variant": final_violation["variant"],
            "message": final_violation["message"],
            "found_by": case.digest(),
            "new_edges": new_edges,
            "ops": len(minimized.schedule),
            "minimize_executions": executions,
        }

    # -- minimization -------------------------------------------------------

    def _minimize(self, case: FuzzCase,
                  invariant: str) -> Tuple[FuzzCase, Dict, int]:
        budget = self.config.minimize_budget
        executions = 0
        current = case
        best_violation = None

        def attempt(trial: FuzzCase) -> Optional[Dict]:
            nonlocal executions
            executions += 1
            outcome = run_case_task(trial.to_fields())
            if outcome["error"] is None and reproduces(outcome, invariant):
                for violation in outcome["violations"]:
                    if violation["invariant"] == invariant:
                        return violation
            return None

        changed = True
        while changed and executions < budget:
            changed = False
            for index in range(len(current.schedule)):
                if len(current.schedule) <= 1 or executions >= budget:
                    break
                trial = replace(
                    current,
                    schedule=(current.schedule[:index]
                              + current.schedule[index + 1:]))
                violation = attempt(trial)
                if violation is not None:
                    current, best_violation, changed = trial, violation, True
                    break
        if current.fault_plan and executions < budget:
            violation = attempt(replace(current, fault_plan=()))
            if violation is not None:
                current = replace(current, fault_plan=())
                best_violation = violation
        if current.survivor_seed and executions < budget:
            violation = attempt(replace(current, survivor_seed=0))
            if violation is not None:
                current = replace(current, survivor_seed=0)
                best_violation = violation
        if len(current.crash_fracs) > 1:
            for frac in current.crash_fracs:
                if executions >= budget:
                    break
                trial = replace(current, crash_fracs=(frac,))
                violation = attempt(trial)
                if violation is not None:
                    current, best_violation = trial, violation
                    break
        if best_violation is None:
            # Nothing shrank (or budget 0): re-derive the violation from
            # the original so the finding is self-consistent.
            violation = attempt(case)
            if violation is None:
                raise RuntimeError(
                    f"finding for {invariant!r} did not reproduce on "
                    f"replay of case {case.digest()} — non-deterministic "
                    "harness")
            return case, violation, executions
        return current, best_violation, executions

    # -- the loop -----------------------------------------------------------

    def run(self) -> CampaignResult:
        config = self.config
        deadline = (time.monotonic() + config.time_budget
                    if config.time_budget else None)
        queue: List[Tuple[FuzzCase, str]] = [
            (case, "seed") for case in self.seeds]
        while self.stats.cases_run < config.max_cases:
            if deadline is not None and time.monotonic() >= deadline:
                break
            room = config.max_cases - self.stats.cases_run
            size = min(config.batch, room)
            while len(queue) < size:
                queue.append(self._candidate())
            batch, queue = queue[:size], queue[size:]
            outcomes = self.engine.map(
                "repro.fuzz.executor:run_case_task",
                [(case.to_fields(),) for case, _ in batch])
            raise_unfinished(outcomes, "fuzz case", FuzzShardError)
            for (case, origin), outcome in zip(batch, outcomes):
                self._ingest(case, origin, outcome.value)
        return CampaignResult(
            config=config, stats=self.stats, coverage=self.coverage,
            corpus=self.corpus, findings=self.findings,
            growth=self.growth)


def register_campaign_metrics(registry, engine: FuzzEngine) -> None:
    """Expose one campaign's live counters as ``fuzz.*`` metrics
    (documented in docs/FUZZING.md; enforced by tools/check_docs.py)."""
    stats = engine.stats
    campaign = registry.scope("fuzz.campaign")
    campaign.counter("cases_run", unit="cases",
                     help="fuzz cases executed (seeds + candidates)",
                     fn=lambda: stats.cases_run)
    campaign.counter("harness_errors", unit="cases",
                     help="cases that failed in the harness, not the "
                          "judge",
                     fn=lambda: stats.harness_errors)
    campaign.counter("findings", unit="findings",
                     help="unique (property, crash site) violations",
                     fn=lambda: stats.findings)
    campaign.counter("duplicate_findings", unit="findings",
                     help="violations deduplicated against an existing "
                          "finding",
                     fn=lambda: stats.duplicate_findings)
    campaign.counter("minimize_executions", unit="cases",
                     help="extra case executions spent shrinking findings",
                     fn=lambda: stats.minimize_executions)
    campaign.gauge("corpus_size", unit="cases",
                   help="cases admitted to the corpus for novel coverage",
                   fn=lambda: len(engine.corpus))
    campaign.gauge("coverage_edges", unit="edges",
                   help="distinct line + crash-site edges reached",
                   fn=lambda: len(engine.coverage))
    campaign.gauge("coverage_sites", unit="sites",
                   help="distinct crash-point sites reached",
                   fn=engine.site_count)
    mutation = registry.scope("fuzz.mutation")
    mutation.counter("fresh_cases", unit="cases",
                     help="candidates generated from scratch",
                     fn=lambda: stats.fresh_cases)
    mutation.counter("mutated_cases", unit="cases",
                     help="candidates produced by stacked mutations",
                     fn=lambda: stats.mutated_cases)
    mutation.counter("spliced_cases", unit="cases",
                     help="candidates produced by splicing two parents",
                     fn=lambda: stats.spliced_cases)
