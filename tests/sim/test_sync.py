"""Unit tests for simulation synchronization primitives."""

import pytest

from repro.sim import Environment, Lock, Queue, SimulationError


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


def test_queue_fifo_transfer():
    env = Environment()
    queue = Queue(env)
    received = []

    def producer(env):
        for i in range(3):
            yield env.timeout(1.0)
            yield queue.put(i)

    def consumer(env):
        for _ in range(3):
            item = yield queue.get()
            received.append((item, env.now))

    env.spawn(producer(env))
    env.spawn(consumer(env))
    env.run()
    assert received == [(0, 1.0), (1, 2.0), (2, 3.0)]


def test_queue_get_before_put():
    env = Environment()
    queue = Queue(env)

    def consumer(env):
        item = yield queue.get()
        return item

    def producer(env):
        yield env.timeout(2.0)
        yield queue.put("late")

    env.spawn(producer(env))
    assert env.run_process(consumer(env)) == "late"


def test_bounded_queue_blocks_putter():
    env = Environment()
    queue = Queue(env, capacity=1)
    times = []

    def producer(env):
        yield queue.put("a")
        times.append(("put-a", env.now))
        yield queue.put("b")  # blocks until consumer takes "a"
        times.append(("put-b", env.now))

    def consumer(env):
        yield env.timeout(5.0)
        item = yield queue.get()
        times.append((f"got-{item}", env.now))

    env.spawn(producer(env))
    env.spawn(consumer(env))
    env.run()
    assert ("put-a", 0.0) in times
    put_b = [t for name, t in times if name == "put-b"][0]
    assert put_b == pytest.approx(5.0)


def test_queue_len():
    env = Environment()
    queue = Queue(env)

    def body(env):
        yield queue.put(1)
        yield queue.put(2)
        assert len(queue) == 2
        yield queue.get()
        assert len(queue) == 1
        return True

    assert env.run_process(body(env)) is True
