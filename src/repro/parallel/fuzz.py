"""Sharded evaluation of fuzz-case batches.

The fuzz engine's unit of parallelism is the *generation batch*: a
fixed-size list of candidate cases drawn from the campaign RNG **before
any of them runs**, so the candidate stream is a pure function of
(seed, corpus-so-far) and never of worker timing. This module fans one
batch out over :class:`~repro.parallel.engine.ShardEngine` — one task
per case, keyed by batch position — and returns outcomes in batch
order, which is exactly the order a ``jobs<=1`` in-process loop
produces. That, plus deterministic outcomes per case, is the whole
byte-identity argument for ``--jobs 1`` vs ``--jobs 4`` campaigns
(pinned in ``tests/fuzz/test_determinism.py``).

Outcome dicts come from :func:`repro.fuzz.executor.run_case_task`
(referenced by name so workers import it themselves; this module
deliberately does not import ``repro.fuzz`` at module level). A batch
with failed tasks raises :class:`FuzzShardError` — a campaign with
holes in its case stream proves nothing and would fork the corpus
state, so partial batches are never ingested.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .engine import ShardEngine, raise_unfinished


class FuzzShardError(RuntimeError):
    """One or more fuzz-case tasks did not complete."""


def evaluate_batch(batch_fields: Sequence[Dict],
                   engine: Optional[ShardEngine] = None) -> List[Dict]:
    """Run every case (as ``FuzzCase.to_fields()`` dicts) and return
    outcomes in batch order. ``engine=None`` or ``jobs <= 1`` runs
    in-process — same results, and the path that keeps test-only
    monkeypatches (the seeded-regression harness) visible."""
    if engine is None or engine.jobs <= 1 or len(batch_fields) <= 1:
        from ..fuzz.executor import run_case_task
        return [run_case_task(fields) for fields in batch_fields]
    outcomes = engine.map("repro.fuzz.executor:run_case_task",
                          [(fields,) for fields in batch_fields])
    raise_unfinished(outcomes, "fuzz case", FuzzShardError)
    return [outcome.value for outcome in outcomes]
