"""Property sweep: seeded-random workloads against the in-memory oracle.

``fio_mixed_workload`` *is* a seeded generator (writes, fsyncs,
truncates, renames, unlinks over a small file set, fresh rename targets,
no writes through stale fds). Each seed yields a different op script;
the explorer crashes each script at an evenly spaced sample of its
persistence boundaries and checks the recovered state against the
oracle's two legal states. Across all seeds this drives well over 200
independently generated crash cases through the crash judge.
"""

from repro.faults import (CrashExplorer, CrashWorkload, OracleOp,
                          fio_mixed_workload)

SEEDS = range(12)
BUDGET = 10


def test_generated_workloads_hold_all_invariants_everywhere():
    total_cases = 0
    failures = []
    for seed in SEEDS:
        explorer = CrashExplorer(
            fio_mixed_workload(ops=12, seed=seed),
            budget=BUDGET, drop_subsets=1, seed=seed)
        result = explorer.explore()
        total_cases += len(result.cases)
        failures.extend(result.violations)
    assert total_cases >= 200, f"only {total_cases} cases generated"
    assert not failures, "\n".join(str(v) for v in failures[:10])


def test_distinct_seeds_generate_distinct_scripts():
    """Sanity: the generator really varies with its seed (otherwise the
    sweep above is 12 copies of one workload)."""
    scripts = set()
    for seed in (0, 1, 2):
        explorer = CrashExplorer(
            fio_mixed_workload(ops=12, seed=seed))
        points = explorer.enumerate_points()
        scripts.add(tuple(point.label for point in points))
    assert len(scripts) == 3


def test_oracle_tracks_the_two_legal_states_mid_op():
    """The oracle's before/after split is what the judge leans on:
    mid-pwrite they must differ exactly on the written range."""
    def body(run):
        from repro.kernel.fd_table import O_CREAT, O_WRONLY
        oracle = run.libc.oracle
        fd = yield from run.libc.open("/f", O_CREAT | O_WRONLY)
        yield from run.libc.pwrite(fd, b"A" * 100, 0)
        oracle.begin(OracleOp(kind="pwrite", path="/f",
                              offset=50, data=b"B" * 100))
        before, after = oracle.expected_states()
        assert before["/f"] == b"A" * 100
        assert after["/f"] == b"A" * 50 + b"B" * 100
        oracle.abort()

    run = CrashWorkload(body).build()
    run.env.run_process(body(run))
