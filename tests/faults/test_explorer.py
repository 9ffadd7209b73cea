"""The crash explorer end-to-end: enumerate, crash everywhere, recover,
and hold the full durability contract on the paper's workloads."""

import pytest

from repro.faults import (
    CrashExplorer,
    DEFAULT_INVARIANTS,
    END_OF_RUN_SITE,
    ExplorationError,
    CrashWorkload,
    WORKLOADS,
    build_crash_run,
)


#: Default-size enumeration of every ``WORKLOADS`` row: (points, points
#: per site). ``fio``, ``db_bench`` and ``kvstore`` drain mid-stream as
#: well as at the end, which is where their *second* batch_retired /
#: cleared / flush / journal_commit comes from.
_LOG_SITES = ("block.flush_completed", "block.write_completed",
              "core.cleanup.batch_retired", "core.log.cleared",
              "core.log.commit_word", "core.log.committed",
              "core.log.entry_filled", "fs.ext4.journal_commit",
              "nvmm.pfence", "nvmm.psync", "nvmm.pwb")
_PAGING_SITES = ("block.flush_completed", "block.write_completed",
                 "core.paging.commit_word", "core.paging.committed",
                 "core.paging.invalidated", "core.paging.page_cleaned",
                 "core.paging.page_stored", "fs.ext4.journal_commit",
                 "nvmm.pfence", "nvmm.psync", "nvmm.pwb")
ENUMERATIONS = {
    "fio": (248, _LOG_SITES, (2, 6, 2, 2, 16, 16, 32, 2, 68, 18, 84)),
    "fio-mixed": (202, _LOG_SITES, (2, 4, 2, 2, 14, 14, 18, 2, 58, 24, 62)),
    "fio-paging": (164, _PAGING_SITES, (2, 6, 13, 13, 1, 4, 13, 2, 32, 19, 59)),
    "db_bench": (71, _LOG_SITES, (2, 3, 2, 2, 5, 5, 5, 2, 19, 7, 19)),
    "kvstore": (168, _LOG_SITES, (2, 6, 2, 2, 12, 12, 12, 2, 48, 22, 48)),
}


def explorer_for(name, *args, **options):
    """An explorer over ``WORKLOADS[name](*args)``."""
    return CrashExplorer(WORKLOADS[name](*args), **options)


def test_the_table_names_exactly_the_pinned_workloads():
    assert sorted(WORKLOADS) == sorted(ENUMERATIONS)
    for maker in WORKLOADS.values():
        assert isinstance(maker(), CrashWorkload)


@pytest.mark.parametrize("name", sorted(ENUMERATIONS))
def test_default_enumeration_is_pinned_site_by_site(name):
    """The reference stream of every shipped workload. A change that
    loses a class of boundary (say the mid-stream drain of ``fio``)
    fails here, naming the site."""
    total, sites, counts = ENUMERATIONS[name]
    explorer = explorer_for(name)
    points = explorer.enumerate_points()
    histogram = explorer.result_shell().site_histogram()
    assert histogram == dict(zip(sites, counts))
    assert len(points) == total == sum(counts)


def test_fio_enumerates_at_least_100_crash_points():
    explorer = explorer_for("fio")
    points = explorer.enumerate_points()
    assert len(points) >= 100
    assert [p.index for p in points] == list(range(len(points)))
    # Simulated time is monotone along the run.
    times = [p.time for p in points]
    assert times == sorted(times)


def test_fio_exhaustive_exploration_holds_every_invariant():
    """The acceptance sweep: every enumerated point on the fio write
    workload, drop-all plus one seeded survivor subset each, zero
    violations from all five invariants."""
    explorer = explorer_for("fio", drop_subsets=1, seed=0)
    result = explorer.explore()
    assert len(result.points) >= 100
    assert result.violations == []
    assert len(result.cases) > len(result.points)  # subsets explored too
    assert len(DEFAULT_INVARIANTS) == 5


def test_namespace_workload_holds_under_budget():
    explorer = explorer_for("fio-mixed", budget=40, drop_subsets=1, seed=1)
    result = explorer.explore()
    assert result.violations == []
    # Namespace boundaries are genuinely in the enumeration.
    assert any(p.label.startswith("seq") and "fd -" in p.label
               for p in result.points)


@pytest.mark.parametrize("name", ["db_bench", "kvstore"])
def test_minirocks_workloads_hold_under_budget(name):
    explorer = explorer_for(name, budget=30, drop_subsets=1, seed=2)
    result = explorer.explore()
    assert result.violations == []


@pytest.mark.parametrize("name", ["db_bench", "kvstore"])
def test_minirocks_enumerations_reach_the_drain_side(name):
    """Both MiniRocks workloads drain mid-stream and at the end, so the
    sweeps CI runs by default cross the cleanup, block and journal
    boundaries — not only the log-append ones."""
    sites = {point.site for point in explorer_for(name).enumerate_points()}
    assert {"core.cleanup.batch_retired", "core.log.cleared",
            "block.write_completed", "block.flush_completed",
            "fs.ext4.journal_commit"} <= sites


@pytest.mark.parametrize("jobs,trace", [(2, False), (1, True), (2, True)])
def test_sequential_sharded_and_traced_sweeps_are_equal(jobs, trace):
    """Every case is an independent run from ``t=0``, so where it runs
    and whether a tracer watches it change nothing: same points, same
    recovered bytes, case for case."""
    from repro.parallel.crash import SweepSpec, parallel_explore

    def dump(result):
        return ([str(p) for p in result.points], result.selected,
                [(c.point.index, c.point.site, c.point.label, c.point.time,
                  c.variant, c.keep_lines,
                  tuple(sorted(c.case.state.items())),
                  tuple(sorted(c.case.state2.items())),
                  c.case.applied, c.case.applied2, c.violations)
                 for c in result.cases])

    reference = explorer_for("fio", budget=12, drop_subsets=1).explore()
    spec = SweepSpec("fio", budget=12, subsets=1, trace=trace)
    assert dump(parallel_explore(spec, jobs=jobs)) == dump(reference)


def test_budget_samples_early_middle_and_late_points():
    explorer = explorer_for("fio", budget=10)
    points = explorer.enumerate_points()
    selected = explorer.select_indices()
    assert len(selected) == 10
    assert selected[0] == 0
    assert selected[-1] == len(points) - 1
    assert selected == sorted(selected)


def test_end_of_run_case_is_explored():
    explorer = explorer_for("fio", budget=3, drop_subsets=0)
    result = explorer.explore()
    assert any(case.point.site == END_OF_RUN_SITE for case in result.cases)
    assert result.violations == []


def test_group_commit_cases_are_exercised():
    """fio's 1024-byte writes over 512-byte entries make every write a
    two-entry commit group, so the group-atomicity invariant sees real
    multi-entry in-flight ops."""
    explorer = explorer_for("fio", budget=60, drop_subsets=0)
    result = explorer.explore()
    grouped = [case for case in result.cases
               if case.case.inflight is not None
               and case.case.inflight.kind == "pwrite"
               and case.case.inflight.entries > 1]
    assert grouped
    assert result.violations == []


def test_summary_is_human_readable():
    explorer = explorer_for("fio", budget=5, drop_subsets=0)
    result = explorer.explore()
    text = result.summary()
    assert "crash points enumerated" in text
    assert "violations:" in text


def test_armed_trigger_past_the_run_raises():
    explorer = explorer_for("fio")
    points = explorer.enumerate_points()
    with pytest.raises(IndexError):
        explorer.run_case(len(points) + 5)


def test_nondeterministic_factory_is_caught():
    """A workload whose runs differ between enumeration and armed replay
    must fail loudly, not silently explore the wrong machine state."""
    calls = []

    def flaky(run):
        calls.append(None)
        # Fewer ops on re-runs: the armed trigger index never fires.
        ops = 14 if len(calls) == 1 else 1
        return WORKLOADS["fio-mixed"](ops).body(run)

    explorer = CrashExplorer(CrashWorkload(build_crash_run, flaky))
    points = explorer.enumerate_points()
    with pytest.raises(ExplorationError):
        explorer.run_case(len(points) - 1)
