"""Regression-seeding: the fuzzer must re-find a planted durability bug.

The plant is a *leaky group commit* — a staircase variant of the bug
class the crash harness fixed in docs/CRASH_TESTING.md: once the log
has filled at least two ``OP_TRUNCATE`` and two ``OP_RENAME`` entries,
``commit_leader`` skips its final ``psync``, so the commit word is
stored and queued but not durably drained. The application still gets
its ack; a crash before the *next* persist barrier drops the commit
line and the acknowledged write with it.

No seed case reaches the staircase (the richest seed logs one truncate
and one rename), so a campaign only trips it after mutation stacks up
namespace ops — which is exactly what the coverage signal rewards:
extra truncates/renames execute new lines in log/recovery, the child
is admitted to the corpus, and its lineage keeps the ops. The blind
``--no-feedback`` baseline mutates only the fixed seeds and never
accumulates, so under the same budget it finds nothing. Both campaigns
are fully deterministic, so the split is a stable pin, not a flake:
if a future change shifts coverage enough to move the trajectory,
re-tune CAMPAIGN_SEED/BUDGET rather than weaken the assertions.
"""

import pytest

import repro.core.log as log_mod
from repro.fuzz import (FuzzCase, FuzzConfig, FuzzEngine, run_case_task,
                        seed_cases)
from repro.fuzz import executor

CAMPAIGN_SEED = 1
BUDGET = 80


def plant_leaky_commit(monkeypatch) -> None:
    """Install the staircase bug behind test-only monkeypatches.

    ``NvmmLog`` has ``__slots__``, so the per-log namespace-op tally
    lives in an id-keyed side table; ``__init__`` is patched to clear
    the slot because a rebuilt stack can reuse a dead log's id.
    """
    real_fill = log_mod.NvmmLog.fill_entry
    real_init = log_mod.NvmmLog.__init__
    ns_fills = {}

    def patched_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        ns_fills.pop(id(self), None)

    def patched_fill(self, seq, fd, offset, data, leader_seq=None):
        if fd in (log_mod.OP_TRUNCATE, log_mod.OP_RENAME):
            ns_fills.setdefault(id(self), []).append(fd)
        return real_fill(self, seq, fd, offset, data, leader_seq)

    def leaky_commit_leader(self, seq):
        seen = ns_fills.get(id(self), [])
        leaky = (seen.count(log_mod.OP_TRUNCATE) >= 2
                 and seen.count(log_mod.OP_RENAME) >= 2)
        addr = self._slot_addr(seq)
        self.nvmm.pfence()
        current = log_mod._HEADER.unpack(
            self.nvmm.load(addr, log_mod.HEADER_SIZE))
        self.nvmm.store(
            addr, log_mod._HEADER.pack(log_mod.COMMIT_LEADER, *current[1:]))
        self._slot_mirror[seq % self.entries] = (seq, log_mod.COMMIT_LEADER)
        self.nvmm.pwb(addr)
        recorder = self.env.crash_points
        if recorder is not None:
            recorder.hit("core.log.commit_word", f"seq {seq}")
        if leaky:
            # THE BUG: ack without draining the commit line.
            yield self.env.timeout(0.0)
        else:
            yield from self.nvmm.psync()
        recorder = self.env.crash_points
        if recorder is not None:
            recorder.hit("core.log.committed", f"seq {seq}")

    monkeypatch.setattr(log_mod.NvmmLog, "__init__", patched_init)
    monkeypatch.setattr(log_mod.NvmmLog, "fill_entry", patched_fill)
    monkeypatch.setattr(log_mod.NvmmLog, "commit_leader",
                        leaky_commit_leader)


@pytest.fixture
def leaky_commit_stack(monkeypatch):
    plant_leaky_commit(monkeypatch)
    # The executor caches explorers (with enumerated crash points) by
    # schedule and fault plan; patched and unpatched enumerations must
    # never mix.
    executor._explorer_for.cache_clear()
    yield
    executor._explorer_for.cache_clear()


def campaign(feedback: bool):
    config = FuzzConfig(seed=CAMPAIGN_SEED, max_cases=BUDGET,
                        feedback=feedback, minimize=False)
    return FuzzEngine(config).run()


def test_feedback_campaign_finds_the_planted_bug(leaky_commit_stack):
    result = campaign(feedback=True)
    assert result.stats.harness_errors == 0
    invariants = {invariant for invariant, _site in result.findings}
    # One judge, one label: the plant is one finding per crash site.
    assert invariants == {"durable_linearizability"}, (
        "planted leaky commit not found within the budget; "
        f"findings: {sorted(result.findings)}")


def test_blind_baseline_misses_the_planted_bug(leaky_commit_stack):
    result = campaign(feedback=False)
    assert result.stats.harness_errors == 0
    assert not result.findings, (
        "the no-feedback baseline was not supposed to reach the "
        f"staircase within {BUDGET} cases — coverage guidance is no "
        "longer pulling its weight as a comparison point")


def test_found_case_is_clean_on_the_fixed_stack():
    """The finding is the plant, not a latent stack bug: replaying the
    found case with the patches lifted recovers clean."""
    with pytest.MonkeyPatch.context() as patches:
        plant_leaky_commit(patches)
        executor._explorer_for.cache_clear()
        result = campaign(feedback=True)
        finding = next(
            fields for (invariant, _), fields in sorted(result.findings.items())
            if invariant == "durable_linearizability")
    executor._explorer_for.cache_clear()
    case = FuzzCase.from_fields(finding["case"])
    outcome = run_case_task(case.to_fields())
    assert outcome["error"] is None
    assert outcome["violations"] == []


def test_seed_cases_do_not_reach_the_staircase(leaky_commit_stack):
    """The plant must be un-triggerable by the seed corpus alone, or
    the blind baseline would trivially find it in batch one."""
    for case in seed_cases():
        outcome = run_case_task(case.to_fields())
        assert outcome["error"] is None
        assert outcome["violations"] == [], case.digest()
