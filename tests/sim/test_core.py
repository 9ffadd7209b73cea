"""Unit tests for the discrete-event simulation kernel."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (Environment, Lock, SimulationError, StopSimulation,
                       Tracer, Waitable, core)

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


def test_delay_is_a_validated_float():
    env = Environment()
    for seconds in (2.5, 0.0, 1e-6, 3):
        slept = env.delay(seconds, "core", "write_overhead")
        assert type(slept) is float and slept == seconds
    # nothing is queued until it is yielded
    assert not env._lane and not env._timers
    with pytest.raises(ValueError):
        env.delay(-1.0, "core", "write_overhead")


def test_nan_sleep_is_rejected_and_the_clock_stays_finite():
    """``seconds < 0`` is False for NaN, so a NaN sleep used to pass the
    check and set ``env.now`` to NaN for the process that took it."""
    env = Environment()
    nan = float("nan")
    with pytest.raises(ValueError):
        env.timeout(nan)
    with pytest.raises(ValueError):
        env.delay(nan, "core", "write_overhead")
    seen = {}

    def sleeper(name, seconds):
        try:
            yield env.delay(seconds, "core", "write_overhead")
        except ValueError:
            seen[name] = "rejected"
            return
        seen[name] = env.now

    env.spawn(sleeper("nan", nan))
    env.spawn(sleeper("sibling", 0.001))
    env.run()
    assert seen == {"nan": "rejected", "sibling": 0.001}
    assert env.now == 0.001


# -- the engine contract: inlined wake-ups == the two-event path -----------

def _noop(_value, _exception):
    pass


def _two_event_timeout(env, seconds):
    """A second subscriber keeps ``Timeout._fire`` on the general path,
    where every wake-up is its own lane event."""
    timeout = env.timeout(seconds)
    timeout.subscribe(_noop)
    return timeout


def _queued_resume(env, fired):
    """Yielding an already-fired waitable, spelled without the inlining:
    the resume is queued by hand — taking the sequence number the engine
    would give it — and the process parks on a waitable that never fires."""
    env.schedule_call(0.0, env.active_process._step,
                      (fired.value, fired.exception))
    return Waitable(env)


#: name -> (how a process sleeps, how it yields an already-fired waitable).
#: ``reference`` never takes an inlined path: it is the engine as it was
#: when every wake-up was queued.
SPELLINGS = {
    "timeout": (lambda env, seconds: env.timeout(seconds),
                lambda env, fired: fired),
    "delay": (lambda env, seconds: env.delay(seconds, "core", "write_overhead"),
              lambda env, fired: fired),
    "reference": (_two_event_timeout, _queued_resume),
}

# Exact ties, zeros, values below one ulp of the clock (``now + d == now``
# once time has advanced), and ordinary magnitudes.
_sleeps = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.5, 1e-20, 5e-324]),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False))
_steps_of_a_process = st.lists(st.one_of(
    st.tuples(st.just("sleep"), _sleeps),
    st.tuples(st.just("grant")),            # uncontended lock: pre-fired
    st.tuples(st.just("fired"), st.integers(0, 9)),  # event set beforehand
    st.tuples(st.just("lock"), _sleeps),    # contended: sleeps holding it
    st.tuples(st.just("join"), st.integers(0, 5)),
    st.tuples(st.just("stop")),             # env.stop() mid-instant
    st.tuples(st.just("kill"), st.integers(0, 5)),
), max_size=8)


def _resume_trace(spelling, scripts, horizons):
    """[(env.now, process, step#)] of every resume, plus the final clock."""
    sleep, ready = SPELLINGS[spelling]
    env = Environment()
    shared = Lock(env)
    trace, processes = [], []

    def wait(waitable):
        return ready(env, waitable) if waitable.fired else waitable

    def body(pid, script):
        private = Lock(env)
        for step, op in enumerate(script):
            other = processes[op[1] % len(processes)] \
                if op[0] in ("join", "kill") else None
            if op[0] == "sleep":
                yield sleep(env, op[1])
            elif op[0] == "grant":
                yield wait(private.acquire())
                private.release()
            elif op[0] == "fired":
                event = env.event()
                event.set(op[1])
                assert (yield wait(event)) == op[1]
            elif op[0] == "lock":
                yield wait(shared.acquire())
                trace.append((env.now, pid, step, "locked"))
                try:
                    yield sleep(env, op[1])
                finally:
                    shared.release()
            elif op[0] == "join" and other is not processes[pid]:
                yield wait(other)
            elif op[0] == "stop":
                env.stop()
                yield wait(private.acquire())
                private.release()
            elif op[0] == "kill" and other is not processes[pid]:
                other.kill()
            trace.append((env.now, pid, step))

    for pid, script in enumerate(scripts):
        processes.append(env.spawn(body(pid, script), name=f"p{pid}"))
    for horizon in sorted(horizons):
        env.run(until=horizon)
        trace.append(("until", env.now))
    for _ in range(sum(len(script) for script in scripts) + 1):
        env.run()  # once more after every env.stop()
    assert not env._lane and not env._timers
    return trace, env.now


@settings(max_examples=400, deadline=None)
@given(scripts=st.lists(_steps_of_a_process, min_size=1, max_size=5),
       horizons=st.lists(st.sampled_from([0.0, 1.0, 2.5, 3.3]), max_size=2))
def test_inlined_wakeups_resume_processes_exactly_like_queued_ones(
        scripts, horizons):
    """The next-event rule is exact. Processes that sleep on ``env.delay``
    floats (no Timeout, the wake-up resumes inline), on plain
    ``env.timeout`` (sole subscriber called inline) and that yield
    already-fired waitables (resumed in place) run at the same instants
    in the same order as on the reference path where every wake-up is a
    queued event — through ties, zeros, sub-ulp sleeps, lock grants and
    hand-offs, joins, ``stop()``, ``kill()`` and ``run(until=)``."""
    reference = _resume_trace("reference", scripts, horizons)
    assert _resume_trace("timeout", scripts, horizons) == reference
    assert _resume_trace("delay", scripts, horizons) == reference


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
        value = yield event
        return value

    event = env.event()
    env.spawn(setter(env, event))
    assert env.run_process(waiter(env, event)) == "payload"


def test_event_set_before_wait():
    env = Environment()
    event = env.event()
    event.set(123)

    def waiter(env):
        value = yield event
        return value

    assert env.run_process(waiter(env)) == 123


def test_event_fail_raises_in_waiter():
    env = Environment()
    event = env.event()

    def waiter(env):
        try:
            yield event
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
        yield event

    with pytest.raises(SimulationError, match="did not finish"):
        env.run_process(stuck(env))


def _core_calls(spelling: str, pending: int, sleeps: int):
    """(steps, events dispatched, Python calls inside sim/core.py by
    name) of a process sleeping ``sleeps`` times beside ``pending``
    never-due timers."""
    env = Environment()
    sleep = SPELLINGS[spelling][0]
    for i in range(pending):
        env.schedule_call(1e6 + i, int)

    def body():
        for _ in range(sleeps):
            yield sleep(env, 1e-6)

    calls = []
    steps = _steps(lambda: env.run_process(body()), calls)
    return steps, env.events_dispatched, Counter(
        name for filename, name in calls if filename == core.__file__)


def _per_sleep(spelling: str):
    """(events dispatched, frames in sim/core.py by name) per sleep;
    asserts neither they nor the step count move with 1,000 other
    timers pending."""
    per_sleep = {}
    for pending in (1, 1000):
        steps_30, events_30, calls_30 = _core_calls(spelling, pending, 30)
        steps_10, events_10, calls_10 = _core_calls(spelling, pending, 10)
        per_sleep[pending] = (
            (steps_30 - steps_10) / 20, (events_30 - events_10) / 20,
            {name: n / 20 for name, n in (calls_30 - calls_10).items()})
    assert per_sleep[1] == per_sleep[1000]
    return per_sleep[1][1:]


def test_timeout_dispatch_cost_is_independent_of_pending_timers():
    """Host-independent guard (see tests/nvmm/test_device_complexity.py):
    one ``yield env.timeout(d)`` is one dispatched event — the sole
    subscriber's resume is inlined into the fire — costing the factory
    call plus the three frames that do the work, and not one step more
    when 1,000 other timers are pending: a timer structure with
    Python-level bookkeeping shows up here by name."""
    assert _per_sleep("timeout") == (1, {
        "Environment.timeout": 1, "Timeout.__init__": 1,
        "Timeout._fire": 1, "Process._step": 1})


def test_delay_dispatch_cost_is_independent_of_pending_timers():
    """The twin for ``yield env.delay(d, ...)``: one dispatched event,
    the process's own wake-up, and no ``Timeout`` constructed."""
    assert _per_sleep("delay") == (1, {
        "Environment.delay": 1, "Process._wake": 1, "Process._step": 1})
