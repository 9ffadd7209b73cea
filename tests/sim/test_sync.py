"""Unit tests for simulation synchronization primitives."""

import pytest

from repro.sim import Environment, Lock, SimulationError


def test_lock_mutual_exclusion():
    env = Environment()
    lock = Lock(env)
    trace = []

    def worker(env, name):
        yield lock.acquire()
        trace.append((name, "in", env.now))
        yield env.timeout(1.0)
        trace.append((name, "out", env.now))
        lock.release()

    env.spawn(worker(env, "a"))
    env.spawn(worker(env, "b"))
    env.run()
    # b cannot enter before a leaves.
    assert trace == [("a", "in", 0.0), ("a", "out", 1.0), ("b", "in", 1.0), ("b", "out", 2.0)]


def test_lock_fifo_ordering():
    env = Environment()
    lock = Lock(env)
    order = []

    def holder(env):
        yield lock.acquire()
        yield env.timeout(1.0)
        lock.release()

    def waiter(env, name, arrive):
        yield env.timeout(arrive)
        yield lock.acquire()
        order.append(name)
        lock.release()

    env.spawn(holder(env))
    env.spawn(waiter(env, "first", 0.1))
    env.spawn(waiter(env, "second", 0.2))
    env.spawn(waiter(env, "third", 0.3))
    env.run()
    assert order == ["first", "second", "third"]


def test_lock_waiting_counts_the_lazily_created_queue():
    """The waiter queue exists only once someone contends; ``waiting``
    reads 0 before that and tracks FIFO hand-off to three waiters."""
    env = Environment()
    lock = Lock(env)
    order = []
    waiting = []

    def holder():
        yield lock.acquire()
        assert lock._waiters is None  # uncontended so far: no queue yet
        waiting.append(lock.waiting)
        yield env.timeout(1.0)
        waiting.append(lock.waiting)
        lock.release()

    def waiter(name, arrive):
        yield env.timeout(arrive)
        yield lock.acquire()
        order.append(name)
        waiting.append(lock.waiting)
        lock.release()

    env.spawn(holder())
    for name, arrive in (("first", 0.1), ("second", 0.2), ("third", 0.3)):
        env.spawn(waiter(name, arrive))
    env.run()
    assert order == ["first", "second", "third"]
    assert waiting == [0, 3, 2, 1, 0]
    assert lock.waiting == 0 and not lock.locked


def test_lock_release_unlocked_raises():
    env = Environment()
    lock = Lock(env)
    with pytest.raises(SimulationError):
        lock.release()


def test_try_acquire():
    env = Environment()
    lock = Lock(env)
    assert lock.try_acquire() is True
    assert lock.try_acquire() is False
    lock.release()
    assert lock.try_acquire() is True

