"""Property suite: FileModelOracle vs. the fully-recovered stack.

Hypothesis draws arbitrary schedules from the fuzz grammar
(``repro.fuzz.schedule``) — the same total interpreter the fuzzer
mutates, so every draw is valid by construction — runs each one to
completion on a fresh crash stack, power-cuts *after* the final drain,
recovers, and requires the recovered files to agree byte-for-byte with
the oracle's model of the acknowledged state (the end-of-run crash case
has nothing in flight, so the oracle's two legal states coincide and
the invariant suite collapses to exact agreement).

A second property crashes mid-run at a drawn fraction of the case's own
crash-point stream and checks the full invariant suite — the one-case
version of what a fuzz campaign does thousands of times. When either
property fails, hypothesis shrinks the schedule to a minimal
counterexample, which is exactly the triage artifact you want first.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import CrashExplorer
from repro.fuzz import FuzzCase, build_fuzz_run, crash_indices

_slots = st.integers(0, 3)

_op = st.one_of(
    st.tuples(st.just("open")),
    st.tuples(st.just("pwrite"), _slots, st.integers(0, 7),
              st.integers(0, 4), st.integers(0, 255)),
    st.tuples(st.just("append"), _slots, st.integers(0, 4),
              st.integers(0, 255)),
    st.tuples(st.just("fsync"), _slots),
    st.tuples(st.just("ftruncate"), _slots, st.integers(0, 2047)),
    st.tuples(st.just("rename"), _slots),
    st.tuples(st.just("unlink"), _slots),
    st.tuples(st.just("recreate"), _slots),
)

_schedules = st.lists(_op, min_size=1, max_size=10).map(tuple)


def explorer_for(schedule) -> CrashExplorer:
    case = FuzzCase(schedule=schedule)
    return CrashExplorer(build_fuzz_run(case),
                         drop_subsets=0, include_end_of_run=True)


@settings(max_examples=25, deadline=None)
@given(schedule=_schedules)
def test_recovered_stack_agrees_with_oracle_at_end_of_run(schedule):
    explorer = explorer_for(schedule)
    result = explorer.run_case(None)
    assert not result.violations, "\n".join(
        f"{v.invariant}: {v.message}" for v in result.violations)


@settings(max_examples=15, deadline=None)
@given(schedule=_schedules, frac=st.floats(0.0, 0.999))
def test_mid_run_crash_recovers_to_a_legal_state(schedule, frac):
    explorer = explorer_for(schedule)
    points = explorer.enumerate_points()
    case = FuzzCase(schedule=schedule, crash_fracs=(frac,))
    [index] = crash_indices(case, len(points))
    result = explorer.run_case(index)
    assert not result.violations, "\n".join(
        f"{v.invariant} at #{index} [{result.point.site}]: {v.message}"
        for v in result.violations)
