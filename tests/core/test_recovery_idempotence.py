"""Recovery robustness: crashing *during* recovery and recovering again
must converge to the same state (recovery is a resumption of in-order
propagation, so replaying a prefix twice is harmless)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import recover
from repro.faults import power_cut
from repro.kernel import O_CREAT, O_WRONLY

from .test_recovery import CFG, fresh_stack, read_file


def run_partial_recovery(env, kernel, ssd, nvmm, stop_after: float):
    """Drive recovery but power-cut it after `stop_after` sim seconds.
    Returns the machine rebooted from the cut."""
    process = env.spawn(recover(env, kernel, nvmm, CFG), name="recovery")
    process.subscribe(lambda _v, _e: None)
    env.run(until=env.now + stop_after)
    if process.alive:
        process.kill()
    return power_cut(kernel, [ssd], nvmm)


@settings(max_examples=12, deadline=None)
@given(
    writes=st.lists(st.tuples(st.integers(0, 8000),
                              st.binary(min_size=1, max_size=900)),
                    min_size=2, max_size=12),
    cut=st.floats(min_value=1e-6, max_value=5e-3),
    seed=st.integers(0, 2**16),
)
def test_property_recovery_survives_its_own_crash(writes, cut, seed):
    env, kernel, ssd, nvmm, nv = fresh_stack(start_cleanup=False)

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        for offset, data in writes:
            yield from nv.pwrite(fd, data, offset)

    env.run_process(body())
    rng = random.Random(seed)
    image = nvmm.crash_image(rng=rng, eviction_probability=0.4)

    # First recovery attempt, power-cut partway through.
    env2, kernel2, nvmm2 = power_cut(kernel, [ssd], nvmm, image)
    env3, kernel3, nvmm3 = run_partial_recovery(
        env2, kernel2, ssd, nvmm2, stop_after=cut)

    # Second recovery runs to completion on whatever survived.
    env3.run_process(recover(env3, kernel3, nvmm3, CFG))

    expected = bytearray()
    for offset, data in writes:
        if offset + len(data) > len(expected):
            expected.extend(b"\x00" * (offset + len(data) - len(expected)))
        expected[offset:offset + len(data)] = data
    recovered = read_file(env3, kernel3, "/f", len(expected) + 50)
    assert recovered == bytes(expected)


def test_double_full_recovery_is_idempotent():
    """Running recovery twice back-to-back (e.g. an operator re-runs the
    tool) changes nothing."""
    env, kernel, ssd, nvmm, nv = fresh_stack(start_cleanup=False)

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"once only", 0)
        yield from nv.pwrite(fd, b"tail", 5000)

    env.run_process(body())
    env2, kernel2, nvmm2 = power_cut(kernel, [ssd], nvmm)
    first = env2.run_process(recover(env2, kernel2, nvmm2, CFG))
    assert first.entries_applied == 2
    second = env2.run_process(recover(env2, kernel2, nvmm2, CFG))
    assert second.entries_applied == 0  # log already emptied
    assert second.files_reopened == 0

    data = read_file(env2, kernel2, "/f", 5010)
    assert data[:9] == b"once only"
    assert data[5000:5004] == b"tail"


def test_recovery_crash_before_any_progress():
    """Cut recovery before it applies anything: the log is untouched and
    the next attempt recovers everything."""
    env, kernel, ssd, nvmm, nv = fresh_stack(start_cleanup=False)

    def body():
        fd = yield from nv.open("/f", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"payload", 0)

    env.run_process(body())
    env2, kernel2, nvmm2 = power_cut(kernel, [ssd], nvmm)
    env3, kernel3, nvmm3 = run_partial_recovery(
        env2, kernel2, ssd, nvmm2, stop_after=1e-9)
    report = env3.run_process(recover(env3, kernel3, nvmm3, CFG))
    assert report.entries_applied == 1
    assert read_file(env3, kernel3, "/f", 10) == b"payload"


def test_idempotence_holds_at_every_enumerated_crash_point():
    """Exhaustive sweep: the explorer power-cuts a small write workload
    at every persistence boundary it crosses, recovers each image, and
    re-runs recovery on the recovered machine — the second pass must be
    a no-op everywhere (the judge's ``recovery_idempotence`` property),
    with durable linearizability holding alongside it."""
    from repro.faults import CrashExplorer, fio_write_phased

    explorer = CrashExplorer(fio_write_phased(ops=6), drop_subsets=0)
    result = explorer.explore()
    assert len(result.points) >= 6
    assert result.violations == []

