"""Property tests: cache modes are interchangeable.

Every ``CACHE_MODES`` row is a design for the same contract
(durability-after-ack behind the libc facade), so any schedule from the
fuzz grammar must leave *byte-identical* file contents after a
worst-case crash (every unpersisted NVMM line dropped) plus recovery,
whichever design ran it — and the recovered bytes must
match the :class:`~repro.faults.FileModelOracle` model exactly, since
every op was acked before the power cut.

The mid-run crash points (where the oracle's two-legal-states split
matters) are covered for every mode by the explorer sweep below, and
for paging also by the ``fio-paging`` workload in the CI ``sweeps``
suite.
"""

import random
from dataclasses import replace

import pytest

from repro.core import CACHE_MODES, NvcacheConfig, PagingStats
from repro.faults import CrashExplorer, run_workload
from repro.faults.workloads import SMALL_CONFIG, SMALL_PAGING_CONFIG
from repro.fuzz.schedule import build_fuzz_run, fresh_case

SEEDS = range(6)

#: One small config per CACHE_MODES row (the paging row keeps its
#: slot-pressure sizing).
MODE_CONFIGS = {mode: replace(SMALL_PAGING_CONFIG if mode == "paging"
                              else SMALL_CONFIG, cache_mode=mode)
                for mode in CACHE_MODES}


def _content_case(seed: int):
    """A fuzz-grammar schedule with crash selection and fault plans
    stripped: block faults fire on backend-write *indices*, which the
    two designs reach in different orders, so injected faults would
    make contents legitimately diverge."""
    case = fresh_case(random.Random(f"modeeq:{seed}"), max_ops=10)
    return replace(case, fault_plan=(), crash_fracs=(0.5,),
                   survivor_seed=0)


def _recovered_state(case, config):
    """Run the schedule to completion, power-cut dropping every
    unpersisted line, recover, and read back every path the oracle ever
    saw. Returns (contents-by-path, oracle model)."""
    workload = build_fuzz_run(case, config)
    run = workload.build()
    run_workload(run, workload)  # raises unless the schedule completes
    oracle = run.libc.oracle
    before, after = oracle.expected_states()
    assert before == after, "oracle not at rest after an acked schedule"
    paths = oracle.paths_of_interest()
    env2, kernel2, _nvmm2, _report = CrashExplorer._crash_and_recover(
        run.kernel, run.devices.values(), run.nvcache.nvmm, config)
    state = CrashExplorer._read_state(env2, kernel2, paths)
    expected = {path: after.get(path) for path in paths}
    return state, expected


def test_logging_and_paging_agree_byte_for_byte_after_recovery():
    """Same schedule, every design, worst-case crash after the final
    ack: recovered bytes must match each other and the oracle model."""
    assert len(MODE_CONFIGS) == len(CACHE_MODES) == 2
    for seed in SEEDS:
        case = _content_case(seed)
        states = {}
        for mode, config in MODE_CONFIGS.items():
            states[mode], expected = _recovered_state(case, config)
            assert states[mode] == expected, f"seed {seed}: {mode} != oracle"
        assert all(state == states["logging"] for state in states.values()), \
            f"seed {seed}: modes diverge"


@pytest.mark.parametrize("mode", sorted(CACHE_MODES))
def test_every_mode_holds_invariants_over_fuzz_schedules(mode):
    """Mid-run crashes too: the explorer sweeps sampled persistence
    boundaries of generated schedules run through the single builder
    under each ``CACHE_MODES`` row and runs the crash judge (durable
    linearizability against the oracle's two legal states, idempotent
    re-recovery) on every case."""
    total = 0
    failures = []
    for seed in (0, 1, 2):
        case = _content_case(seed)
        explorer = CrashExplorer(
            build_fuzz_run(case, MODE_CONFIGS[mode]),
            budget=6, drop_subsets=1, seed=seed)
        result = explorer.explore()
        total += len(result.cases)
        failures.extend(result.violations)
    assert total >= 30, f"only {total} crash cases generated"
    assert not failures, "\n".join(str(v) for v in failures[:10])


def test_paging_stats_snapshot_shape():
    """`PagingStats.as_dict` is the `core.paging.*` metric vocabulary —
    pin the keys so docs/POLICIES.md and the dashboards can rely on it."""
    keys = set(PagingStats().as_dict())
    assert {"writes", "bytes_written", "reads", "bytes_read",
            "page_hits", "page_misses", "hit_rate", "overwrite_hits",
            "fill_reads", "promotions", "promotions_skipped",
            "evictions", "txn_commits", "full_waits",
            "writeback_pages", "writeback_batches", "writeback_syncs",
            "invalidations", "fsyncs_ignored"} <= keys


def test_paging_config_validation():
    """The config layer rejects nonsense design-point selections."""
    with pytest.raises(ValueError):
        NvcacheConfig(cache_mode="mystery")
    with pytest.raises(ValueError):
        NvcacheConfig(cache_mode="paging", paging_slots=0)
