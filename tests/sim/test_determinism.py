"""Dispatch order and determinism of the event loop (see repro.sim.core).

Timers sit in a heap and zero-delay entries in a FIFO lane; the lane is
a fast path, not a semantic change. Whatever the mix, ``Environment.run``
must dispatch the live entries in exactly ascending ``(time, sequence)``
order — same-timestamp callbacks in global schedule order — and a seeded
run must replay identically event for event.
"""

import random
from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment


def test_zero_delay_callbacks_fire_in_schedule_order():
    env = Environment()
    order = []
    for i in range(10):
        env.schedule_call(0.0, order.append, (i,))
    env.run()
    assert order == list(range(10))


def test_lane_does_not_overtake_equal_timestamp_heap_entries():
    """A zero-delay callback scheduled while dispatching time t must not
    jump ahead of an already-scheduled heap entry also due at t."""
    env = Environment()
    order = []

    def first():
        order.append("heap-first")
        # Scheduled *during* t=1.0 dispatch: later sequence number, so it
        # fires after every heap entry already due at t=1.0.
        env.schedule_call(0.0, order.append, ("lane",))

    env.schedule_call(1.0, first)
    env.schedule_call(1.0, order.append, ("heap-second",))
    env.schedule_call(1.0, order.append, ("heap-third",))
    env.run()
    assert order == ["heap-first", "heap-second", "heap-third", "lane"]


def test_mixed_delays_respect_time_then_sequence_order():
    env = Environment()
    order = []
    env.schedule_call(2.0, order.append, ("late",))
    env.schedule_call(0.0, order.append, ("now-a",))
    env.schedule_call(1.0, order.append, ("mid",))
    env.schedule_call(0.0, order.append, ("now-b",))
    env.run()
    assert order == ["now-a", "now-b", "mid", "late"]


def test_out_of_order_timers_dispatch_in_time_then_schedule_order():
    """End-to-end: timers scheduled out of order dispatch in time order,
    ties in schedule order, through the real event loop."""
    env = Environment()
    fired = []
    for delay, tag in [(5.0, "e"), (1.0, "a"), (3.0, "c"), (1.0, "b"),
                       (3.0, "d"), (1e14, "z")]:
        env.schedule_call(delay, fired.append, (tag,))
    env.run()
    assert fired == ["a", "b", "c", "d", "e", "z"]


# Delays from a tiny set of floats (massive ties, the zero-delay lane),
# ordinary magnitudes, and far-future outliers.
delays = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.5]),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    st.floats(min_value=1e12, max_value=1e15, allow_nan=False),
)
#: One scheduled callback: its delay and how many further callbacks it
#: schedules when it fires.
callbacks = st.tuples(delays, st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(specs=st.lists(callbacks, max_size=150), roots=st.integers(1, 10))
def test_run_dispatches_live_entries_in_ascending_time_then_sequence(specs, roots):
    """The ordering proof: whatever is scheduled — from outside or from
    inside a callback — every entry fires exactly once, at its due time,
    in ascending ``(time, seq)``. (A callback can only schedule entries
    that sort after itself, so the sorted order of everything scheduled
    *is* the one correct dispatch order.)"""
    env = Environment()
    todo = iter(specs)
    scheduled, pending, fired = [], [], []

    def schedule(delay, fanout):
        entry = (env.now + delay, env._sequence)
        env.schedule_call(delay, fire, (entry, fanout))
        scheduled.append(entry)
        pending.append(entry)

    def fire(entry, fanout):
        assert env.now == entry[0]
        pending.remove(entry)  # raises if it fired before
        fired.append(entry)
        for spec in islice(todo, fanout):
            schedule(*spec)

    for spec in islice(todo, roots):
        schedule(*spec)
    env.run()
    assert fired == sorted(scheduled)
    assert env.events_dispatched == len(fired)
    assert not pending and not env._lane and not env._timers


def test_waitable_subscribers_fire_in_subscription_order():
    env = Environment()
    order = []

    def body():
        waitable = env.event()
        for i in range(5):
            waitable.subscribe(lambda _v, _e, i=i: order.append(i))
        env.schedule_call(0.0, waitable.set, ())
        yield waitable

    env.run_process(body())
    assert order == list(range(5))


def _seeded_trace(seed: int):
    """A small process zoo driven by a seeded RNG: rng-jittered timers,
    zero-delay chains, and cross-process wakeups, all recorded as
    (time, label) pairs."""
    env = Environment()
    rng = random.Random(seed)
    trace = []
    gate = env.event()

    def ticker(name, count):
        for i in range(count):
            yield env.timeout(rng.random() * 1e-3)
            trace.append((env.now, f"{name}:{i}"))
            if name == "a" and i == 2:
                gate.set("open")

    def chained(name):
        value = yield gate
        trace.append((env.now, f"{name}:woke:{value}"))
        for i in range(3):
            yield env.timeout(0.0)
            trace.append((env.now, f"{name}:zero:{i}"))

    for name in rng.sample(["w", "x", "y"], 3):
        env.spawn(chained(name), name=name)
    env.spawn(ticker("a", 5), name="a")
    env.spawn(ticker("b", 5), name="b")
    env.run()
    return env.now, env.events_dispatched, trace


def test_identical_seeded_runs_produce_identical_traces():
    first = _seeded_trace(seed=1234)
    second = _seeded_trace(seed=1234)
    assert first == second
    # And the seed actually matters (the trace is not vacuously stable).
    assert _seeded_trace(seed=99)[2] != first[2]
