"""The fuzz-case grammar: wire format, digests, generation, mutation,
and the total interpreter."""

import random

import pytest

from repro.faults import power_cut, run_workload
from repro.fuzz import FuzzCase, build_fuzz_run, fresh_case, mutate
from repro.fuzz.schedule import (FAULT_KINDS, MAX_FRACS, MAX_OPS,
                                 MUTATION_KINDS, OP_KINDS, seed_cases)


def some_case() -> FuzzCase:
    return FuzzCase(schedule=(("pwrite", 0, 1, 2, 70), ("fsync", 0)),
                    crash_fracs=(0.25, 0.75), survivor_seed=7,
                    fault_plan=(("fail", 3),))


def test_wire_format_round_trips():
    case = some_case()
    assert FuzzCase.from_fields(case.to_fields()) == case


def test_digest_is_stable_and_field_sensitive():
    case = some_case()
    assert case.digest() == FuzzCase.from_fields(case.to_fields()).digest()
    assert len(case.digest()) == 12
    from dataclasses import replace
    assert replace(case, survivor_seed=8).digest() != case.digest()
    assert replace(case, crash_fracs=(0.5,)).digest() != case.digest()


def test_explorer_cache_ignores_crash_selection():
    from dataclasses import replace
    from repro.fuzz.executor import _explorer_for

    def explorer(case):
        return _explorer_for(case.schedule, case.fault_plan)

    case = some_case()
    _explorer_for.cache_clear()
    first = explorer(case)
    assert explorer(replace(case, crash_fracs=(0.9,),
                            survivor_seed=0)) is first
    assert _explorer_for.cache_info().misses == 1
    assert explorer(replace(case, fault_plan=())) is not first
    assert _explorer_for.cache_info().misses == 2
    _explorer_for.cache_clear()


def test_fresh_cases_are_deterministic_per_rng_seed():
    a = [fresh_case(random.Random(5)) for _ in range(3)]
    b = [fresh_case(random.Random(5)) for _ in range(3)]
    assert [c.digest() for c in a][0] == [c.digest() for c in b][0]
    case = a[0]
    assert 4 <= len(case.schedule) <= 12
    assert 1 <= len(case.crash_fracs) <= MAX_FRACS
    assert all(op[0] in OP_KINDS for op in case.schedule)
    assert all(kind in FAULT_KINDS for kind, _ in case.fault_plan)


def test_mutation_stays_inside_the_grammar():
    rng = random.Random(11)
    pool = seed_cases()
    case = pool[0]
    for _ in range(200):
        case, used = mutate(rng, case, pool)
        assert used, "mutate must report the operators that fired"
        assert all(kind in MUTATION_KINDS for kind in used)
        assert 1 <= len(case.schedule) <= MAX_OPS
        assert 1 <= len(case.crash_fracs) <= MAX_FRACS
        assert all(op[0] in OP_KINDS for op in case.schedule)
        # Wire format survives arbitrary mutation chains.
        assert FuzzCase.from_fields(case.to_fields()) == case


@pytest.mark.parametrize("schedule", [
    (("unlink", 0),),                      # op before any open
    (("rename", 2), ("rename", 2)),        # slot beyond table size
    (("ftruncate", 0, 0), ("append", 0, 0, 1)),
    (("recreate", 1), ("pwrite", 3, 7, 4, 255)),
])
def test_interpreter_is_total(schedule):
    """Every grammar schedule runs to completion — no invalid cases."""
    workload = build_fuzz_run(FuzzCase(schedule=schedule))
    # raises if the schedule raises or stalls
    assert run_workload(workload.build(), workload)


def test_fault_plan_arms_injector_and_the_power_cut_drops_it():
    case = FuzzCase(schedule=(("pwrite", 0, 0, 2, 65), ("fsync", 0)),
                    fault_plan=(("fail", 0),))
    workload = build_fuzz_run(case)
    run = workload.build()
    ssd = run.devices["ssd"]
    run_workload(run, workload)
    assert ssd.fault_injector is not None
    assert ssd.fault_injector.writes_failed == 1
    power_cut(run.kernel, run.devices.values(), run.nvcache.nvmm)
    assert ssd.fault_injector is None
