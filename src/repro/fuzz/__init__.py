"""Coverage-guided crash-and-fault fuzzing.

``repro.faults`` enumerates crash points exhaustively *per fixed
workload*; this package searches the joint space the ROADMAP names —
(workload schedule × crash point × surviving-line subset × injected
block faults) — steering mutation with line coverage of
``repro.core``/``repro.fs`` plus crash-site coverage, judging every
case with the five durability invariants and the FileModelOracle, and
keeping a deduplicated, minimized corpus on disk. Deterministic end to
end: same seed ⇒ same corpus, findings, and reports at any ``--jobs``.

Entry points: ``tools/fuzz.py`` (run / triage / compare) and
:class:`FuzzEngine`. See docs/FUZZING.md.
"""

from .corpus import Corpus, corpus_digest
from .coverage import CoverageCollector
from .engine import (CampaignResult, CampaignStats, FuzzConfig, FuzzEngine,
                     register_campaign_metrics)
from .executor import collector, crash_indices, run_case_task
from .report import (compare_campaigns, render_compare_text, render_html,
                     render_text, repro_command)
from .schedule import (FuzzCase, build_fuzz_run, fresh_case, mutate,
                       seed_cases)

__all__ = [
    "CampaignResult",
    "CampaignStats",
    "Corpus",
    "CoverageCollector",
    "FuzzCase",
    "FuzzConfig",
    "FuzzEngine",
    "build_fuzz_run",
    "collector",
    "compare_campaigns",
    "corpus_digest",
    "crash_indices",
    "fresh_case",
    "mutate",
    "register_campaign_metrics",
    "render_compare_text",
    "render_html",
    "render_text",
    "repro_command",
    "run_case_task",
    "seed_cases",
]
