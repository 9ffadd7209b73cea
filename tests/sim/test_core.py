"""Unit tests for the discrete-event simulation kernel."""

from collections import Counter

import pytest

from repro.sim import Environment, SimulationError, StopSimulation, Tracer, core

from ..nvmm.test_device_complexity import _steps


def test_timeout_advances_clock():
    env = Environment()

    def body(env):
        yield env.timeout(2.5)
        return env.now

    assert env.run_process(body(env)) == pytest.approx(2.5)


def test_zero_timeout_runs_immediately():
    env = Environment()

    def body(env):
        yield env.timeout(0.0)
        return "done"

    assert env.run_process(body(env)) == "done"
    assert env.now == 0.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_delay_schedules_exactly_like_timeout():
    """``env.delay`` is ``env.timeout`` plus a booking: same queue, same
    ``(time, seq)`` entry, and the zero-delay FIFO lane for 0.0."""
    plain, attributed = Environment(), Environment()
    for seconds in (2.5, 0.0, 1e-6):
        plain.timeout(seconds)
        attributed.delay(seconds, "core", "write_overhead")
    for env in (plain, attributed):
        assert [entry[:2] for entry in env._lane] == [(0.0, 1)]
    assert [e[:2] for e in attributed.pending_events()] == \
        [e[:2] for e in plain.pending_events()]
    with pytest.raises(ValueError):
        attributed.delay(-1.0, "core", "write_overhead")


def test_delay_charges_the_root_span_iff_a_tracer_is_attached():
    def body(env):
        yield env.delay(2.0, "nvmm", "store")
        yield env.delay(0.0, "nvmm", "store")
        return env.now

    env = Environment()
    assert env.tracer is None  # tracing is off by default...
    assert env.run_process(body(env)) == 2.0  # ...and delay just sleeps

    env = Environment()
    tracer = env.tracer = Tracer()

    def traced_body(env):
        token = tracer.begin(env, "libc", "pwrite")
        yield from body(env)
        tracer.end(env, token)

    env.run_process(traced_body(env))
    (root,) = tracer.roots()
    assert root.segments == {"nvmm.store": 2.0}
    assert env.now == 2.0
    with pytest.raises(ValueError):  # the closed vocabulary still applies
        env.delay(1.0, "nvmm", "not_a_segment")


def test_processes_interleave_in_time_order():
    env = Environment()
    order = []

    def worker(env, name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.spawn(worker(env, "slow", 3.0))
    env.spawn(worker(env, "fast", 1.0))
    env.spawn(worker(env, "mid", 2.0))
    env.run()
    assert order == ["fast", "mid", "slow"]


def test_same_time_events_fire_in_schedule_order():
    env = Environment()
    order = []

    def worker(env, name):
        yield env.timeout(1.0)
        order.append(name)

    for name in ("a", "b", "c"):
        env.spawn(worker(env, name))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_return_value_via_join():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        return 99

    def parent(env):
        proc = env.spawn(child(env))
        value = yield proc.join()
        return value

    assert env.run_process(parent(env)) == 99


def test_join_already_finished_process():
    env = Environment()

    def child(env):
        yield env.timeout(0.5)
        return "early"

    def parent(env):
        proc = env.spawn(child(env))
        yield env.timeout(5.0)
        value = yield proc.join()
        return value

    assert env.run_process(parent(env)) == "early"


def test_exception_propagates_to_joiner():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    def parent(env):
        proc = env.spawn(child(env))
        try:
            yield proc.join()
        except ValueError as exc:
            return str(exc)
        return "no error"

    assert env.run_process(parent(env)) == "boom"


def test_unjoined_crash_raises_from_run():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.spawn(child(env))
    with pytest.raises(SimulationError):
        env.run()


def test_run_process_reraises_original_exception():
    env = Environment()

    def body(env):
        yield env.timeout(0.0)
        raise KeyError("missing")

    with pytest.raises(KeyError):
        env.run_process(body(env))


def test_run_until_pauses_then_resumes():
    env = Environment()
    marks = []

    def worker(env):
        yield env.timeout(10.0)
        marks.append(env.now)

    env.spawn(worker(env))
    env.run(until=5.0)
    assert env.now == 5.0
    assert marks == []
    env.run()
    assert marks == [10.0]


def test_stop_simulation_from_process():
    env = Environment()
    seen = []

    def stopper(env):
        yield env.timeout(1.0)
        raise StopSimulation()

    def other(env):
        yield env.timeout(2.0)
        seen.append("late")

    env.spawn(stopper(env))
    env.spawn(other(env))
    env.run()
    assert seen == []
    assert env.now == 1.0


def test_yield_non_waitable_is_error():
    env = Environment()

    def bad(env):
        yield 42

    def parent(env):
        proc = env.spawn(bad(env))
        with pytest.raises(SimulationError):
            yield proc.join()
        return True

    assert env.run_process(parent(env)) is True


def test_yield_from_composition():
    env = Environment()

    def inner(env):
        yield env.timeout(1.0)
        return 7

    def outer(env):
        a = yield from inner(env)
        b = yield from inner(env)
        return a + b

    assert env.run_process(outer(env)) == 14
    assert env.now == pytest.approx(2.0)


def test_kill_stops_process():
    env = Environment()
    marks = []

    def worker(env):
        yield env.timeout(5.0)
        marks.append("ran")

    proc = env.spawn(worker(env))
    env.run(until=1.0)
    proc.kill()
    env.run()
    assert marks == []
    assert not proc.alive


def test_event_value_passed_to_waiter():
    env = Environment()

    def setter(env, event):
        yield env.timeout(1.0)
        event.set("payload")

    def waiter(env, event):
        value = yield event.wait()
        return value

    event = env.event()
    env.spawn(setter(env, event))
    assert env.run_process(waiter(env, event)) == "payload"


def test_event_set_before_wait():
    env = Environment()
    event = env.event()
    event.set(123)

    def waiter(env):
        value = yield event.wait()
        return value

    assert env.run_process(waiter(env)) == 123


def test_event_fail_raises_in_waiter():
    env = Environment()
    event = env.event()

    def waiter(env):
        try:
            yield event.wait()
        except OSError as exc:
            return exc.errno
        return None

    def failer(env):
        yield env.timeout(1.0)
        event.fail(OSError(5, "EIO"))

    env.spawn(failer(env))
    assert env.run_process(waiter(env)) == 5


def test_deadlock_detected_by_run_process():
    env = Environment()
    event = env.event()  # never set

    def stuck(env):
        yield event.wait()

    with pytest.raises(SimulationError, match="did not finish"):
        env.run_process(stuck(env))


def _core_calls(pending: int, timeouts: int):
    """(steps, Python calls inside sim/core.py by name) of a process
    sleeping ``timeouts`` times beside ``pending`` never-due timers."""
    env = Environment()
    for i in range(pending):
        env.schedule_call(1e6 + i, int)

    def body():
        for _ in range(timeouts):
            yield env.timeout(1e-6)

    calls = []
    steps = _steps(lambda: env.run_process(body()), calls)
    return steps, Counter(name for filename, name in calls
                          if filename == core.__file__)


def test_timeout_dispatch_cost_is_independent_of_pending_timers():
    """Host-independent guard (see tests/nvmm/test_device_complexity.py):
    one ``yield env.timeout(d)`` costs the factory call plus the three
    frames that do the work, and not one step more when 1,000 other
    timers are pending — a timer structure with Python-level
    bookkeeping shows up here by name."""
    per_timeout = {}
    for pending in (1, 1000):
        steps_30, calls_30 = _core_calls(pending, 30)
        steps_10, calls_10 = _core_calls(pending, 10)
        per_timeout[pending] = (
            (steps_30 - steps_10) / 20,
            {name: n / 20 for name, n in (calls_30 - calls_10).items()})
    assert per_timeout[1] == per_timeout[1000]
    assert per_timeout[1][1] == {
        "Environment.timeout": 1, "Timeout.__init__": 1,
        "Waitable._fire": 1, "Process._step": 1}
