"""Discrete-event simulation kernel.

Every component of the reproduced I/O stack (NVMM, block devices, the
simulated kernel, NVCache itself, applications) runs as a *process*: a
Python generator that yields either a :class:`Waitable` (block until it
fires) or a plain ``float`` (sleep that many simulated seconds). The
:class:`Environment` owns a virtual clock and an event heap, and resumes
processes when what they are blocked on is due.

The API intentionally mirrors a small subset of SimPy::

    env = Environment()

    def worker(env):
        yield env.timeout(5.0)
        return 42

    proc = env.spawn(worker(env), name="worker")
    env.run()
    assert proc.value == 42

Composition uses plain ``yield from``: a sub-operation that consumes
simulated time is a generator, and callers delegate to it. A layer that
only forwards returns the inner generator instead of re-yielding it —
every ``yield from`` frame on a process's stack is re-entered on each
resume. A modelled delay is ``yield env.delay(seconds, layer, segment)``:
the critical-path booking when a tracer is attached, then the ``float``
to sleep on — the cheap spelling of ``yield env.timeout(seconds)``, which
stays the general waitable (held, subscribed to by several).
The ``float`` must be yielded where it is made, never stored
(``tests/core/test_facade_contract.py`` checks every call site), so the
sleep takes the sequence number a ``Timeout`` built there would have.

Scheduling fast path: zero-delay events (waitable callbacks, ``timeout(0)``,
process start-ups) dominate a run, so they bypass the timer structure
entirely and go into a FIFO *lane* — a deque that is merged with the timers
by ``(time, sequence)`` order. Because the clock never moves backwards, lane
entries are appended in already-sorted order, making the merge a pair of
head comparisons instead of an O(log n) heap round-trip per event. Entries
are ``(time, seq, fn, args)`` tuples, so firing a callback allocates no
closure. The fast path changes only the *wall* clock, never the simulated
one: ``tests/sim/test_determinism.py`` pins the dispatch order and
``bench/run.py`` (see DESIGN.md §6) tracks the host clock.

The next-event rule: *an event that would be the very next one
dispatched is run now instead of queued.* A wake-up appended to the lane
at the end of a dispatch is the next event exactly when the lane is
empty, no timer is due at the current instant (``timers[0][0] !=
env.now``) and no stop was requested; then nothing can run or move the
clock between the append and the pop, so calling it in place dispatches
the same work in the same order. It applies where
a wake-up is the *last act* of the event being dispatched: (i) the queue
entry of a sleeping process (:meth:`Process._wake`) resumes the process
itself — no ``Timeout``, no callback list; (ii) a process that yields an
already-fired waitable (an uncontended ``Lock.acquire()``) is sent its
value in the same step; (iii) a ``Timeout`` fired by the run loop with a
single subscriber calls it. Whenever the condition does not hold, the
wake-up takes the lane as before, with the sequence number it always
had: the queued two-event path is the same-instant fallback, not a
second engine. Order is therefore identical, not merely close — every
clock, crash-point stream and digest is unchanged, and
``tests/sim/test_core.py`` checks the inlined paths against the queued
one event for event. ``events_dispatched`` counts what the run loop
popped, so inlined wake-ups are not in it.

Timed events live in a plain list kept as a binary heap by ``heapq``, so
dispatch order is ascending ``(time, seq)`` by construction. The paper's
workloads are ``psync`` jobs beside a few daemons: the pending-timer
population is 1 on every benchmark workload and never above 15 anywhere
in the test suite, where nothing beats a heap push and pop.

Observability hooks: an :class:`Environment` carries three optional,
off-by-default attachment points — ``tracer`` (a
:class:`repro.sim.trace.Tracer` recording causal span trees),
``metrics`` (a :class:`repro.obs.MetricsRegistry`; instrumented
components self-register their counters/gauges/histograms against it at
construction time) and ``crash_points`` (a
:class:`repro.faults.CrashPointRecorder`; persistence boundaries report
themselves to it for crash-state enumeration). All are plain attributes,
cost one ``is not None`` check when unused, and never affect simulated
time.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

_Entry = Tuple[float, int, Callable[..., None], tuple]


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class StopSimulation(Exception):
    """Raised by a process to halt the whole simulation immediately."""


class Waitable:
    """Something a process can block on.

    A waitable is *pending* until it fires. Subscribers (usually processes)
    are called back exactly once with ``(value, exception)``.
    """

    __slots__ = ("env", "_callbacks", "_fired", "value", "exception")

    def __init__(self, env: "Environment"):
        self.env = env
        self._callbacks: List[Callable[[Any, Optional[BaseException]], None]] = []
        self._fired = False
        self.value: Any = None
        self.exception: Optional[BaseException] = None

    @property
    def fired(self) -> bool:
        return self._fired

    def subscribe(self, callback: Callable[[Any, Optional[BaseException]], None]) -> None:
        if self._fired:
            # Deliver asynchronously to preserve run-to-yield semantics.
            self.env.schedule_call(0.0, callback, (self.value, self.exception))
        else:
            self._callbacks.append(callback)

    def _fire(self, value: Any = None, exception: Optional[BaseException] = None) -> None:
        if self._fired:
            raise SimulationError("waitable fired twice")
        self._fired = True
        self.value = value
        self.exception = exception
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            # Inlined schedule_call(0.0, ...): subscriber wake-ups all
            # take the zero-delay lane, one entry per subscriber.
            env = self.env
            lane_append = env._lane.append
            now = env.now
            seq = env._sequence
            args = (value, exception)
            for callback in callbacks:
                lane_append((now, seq, callback, args))
                seq += 1
            env._sequence = seq


class Timeout(Waitable):
    """Fires after a fixed amount of simulated time."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout: {delay!r}")
        # Flattened Waitable.__init__ + Environment.schedule_call: a
        # timeout is constructed for nearly every simulated operation,
        # so the two extra frames are worth eliding.
        self.env = env
        self._callbacks = []
        self._fired = False
        self.value = None
        self.exception = None
        seq = env._sequence
        env._sequence = seq + 1
        if delay == 0.0:
            env._lane.append((env.now, seq, self._fire, (value,)))
        else:
            heappush(env._timers, (env.now + delay, seq, self._fire, (value,)))

    def _fire(self, value: Any = None, exception: Optional[BaseException] = None) -> None:
        # Only ever called by the run loop, through the entry queued
        # above, so waking the subscriber is this event's last act:
        # next-event rule (iii), see the module docstring.
        callbacks = self._callbacks
        env = self.env
        timers = env._timers
        if len(callbacks) != 1 or env._lane or (
                timers and timers[0][0] == env.now):
            Waitable._fire(self, value, exception)
            return
        self._fired = True
        self.value = value
        self._callbacks = []
        callbacks[0](value, None)


class Process(Waitable):
    """A running generator, resumable by the environment.

    A process is itself a waitable that fires when the generator returns;
    its ``value`` is the generator's return value. ``yield process`` (or
    ``process.join()``) blocks until completion and evaluates to that value.
    """

    __slots__ = ("name", "_generator", "_alive")

    def __init__(self, env: "Environment", generator: Generator, name: str = "process"):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, got {type(generator).__name__}")
        self.name = name
        self._generator = generator
        self._alive = True
        env.schedule_call(0.0, self._step, (None, None))

    @property
    def alive(self) -> bool:
        return self._alive

    def join(self) -> "Process":
        return self

    def _step(self, value: Any, exception: Optional[BaseException]) -> None:
        """Resume the generator, again and again while what it yields
        has fired already and the next-event rule (ii) holds."""
        if not self._alive:
            return
        env = self.env
        env.active_process = self
        generator = self._generator
        while True:
            try:
                if exception is not None:
                    target = generator.throw(exception)
                else:
                    target = generator.send(value)
            except StopIteration as stop:
                self._alive = False
                self._fire(stop.value)
                return
            except StopSimulation:
                self._alive = False
                env._stop_requested = True
                return
            except BaseException as exc:  # noqa: BLE001 - propagate to joiners
                self._alive = False
                if self._callbacks:
                    self._fire(None, exc)
                else:
                    env._crashed_process = (self, exc)
                    env._stop_requested = True
                return
            if target.__class__ is float:
                # A sleep (what ``env.delay`` returns): the wake-up is
                # this process's own queue entry, no Timeout in between.
                seq = env._sequence
                env._sequence = seq + 1
                if target == 0.0:
                    env._lane.append((env.now, seq, self._wake, ()))
                else:
                    heappush(env._timers,
                             (env.now + target, seq, self._wake, ()))
                return
            if not isinstance(target, Waitable):
                self._alive = False
                self._fire(
                    None,
                    SimulationError(
                        f"process {self.name!r} yielded {target!r}; "
                        "processes must yield a Waitable or a float"
                    ),
                )
                return
            if not target._fired:
                target._callbacks.append(self._step)
                return
            value = target.value
            exception = target.exception
            timers = env._timers
            if env._lane or env._stop_requested or (
                    timers and timers[0][0] == env.now):
                seq = env._sequence
                env._sequence = seq + 1
                env._lane.append((env.now, seq, self._step,
                                  (value, exception)))
                return

    def _wake(self) -> None:
        """Queue entry of a sleep: next-event rule (i) — resume in place
        if the resume would be the next event anyway, else queue it."""
        env = self.env
        timers = env._timers
        if env._lane or (timers and timers[0][0] == env.now):
            seq = env._sequence
            env._sequence = seq + 1
            env._lane.append((env.now, seq, self._step, (None, None)))
        else:
            self._step(None, None)

    def kill(self) -> None:
        """Terminate the process without firing it (used for crash tests)."""
        if self._alive:
            self._alive = False
            self._generator.close()


class Environment:
    """The event loop: virtual clock, zero-delay lane, and a heap of
    timed callbacks."""

    __slots__ = ("now", "tracer", "metrics", "crash_points", "qos",
                 "active_process", "events_dispatched", "_timers", "_lane",
                 "_sequence", "_stop_requested",
                 "_crashed_process", "_granted")

    def __init__(self, start_time: float = 0.0):
        self.now = float(start_time)
        # Optional observability hooks (see repro.sim.trace.Tracer and
        # repro.obs.MetricsRegistry). Components that support metrics
        # self-register when constructed with ``metrics`` already set.
        self.tracer = None
        self.metrics = None
        # Optional crash-point recorder (repro.faults.CrashPointRecorder):
        # instrumented persistence boundaries call ``hit`` on it. Costs
        # one ``is not None`` check when unused and never touches the
        # simulated clock.
        self.crash_points = None
        # Optional multi-tenant QoS manager (repro.core.qos.QosManager):
        # the NVMM log consults it for admission control and quotas, and
        # the NVCache hot paths report per-tenant tallies to it. Same
        # contract as the other hooks — one ``is not None`` check when
        # unused, bit-identical behaviour when absent or unbound.
        self.qos = None
        # The Process whose generator is currently being stepped (None
        # outside a step). The tracer keys per-process span stacks off
        # it so trace context propagates without argument threading.
        self.active_process = None
        # Callbacks dispatched so far (read by the perf harness).
        self.events_dispatched = 0
        self._timers: List[_Entry] = []  # binary heap (heapq)
        # Same-timestamp FIFO lane: appended in nondecreasing (time, seq)
        # order because the clock is monotonic, hence always sorted.
        self._lane: Deque[_Entry] = deque()
        # Plain int counter (not itertools.count): cheaper to bump.
        self._sequence = 0
        self._stop_requested = False
        self._crashed_process: Optional[Tuple[Process, BaseException]] = None
        # Shared pre-fired waitable handed out by uncontended
        # Lock.acquire() calls: immutable once fired, so every fast-path
        # acquire can return the same object instead of allocating one.
        self._granted = Waitable(self)
        self._granted._fired = True

    # -- scheduling -------------------------------------------------------

    def schedule_call(self, delay: float, fn: Callable[..., None],
                      args: tuple = ()) -> None:
        """Schedule ``fn(*args)``; zero-delay calls take the FIFO lane."""
        seq = self._sequence
        self._sequence = seq + 1
        if delay == 0.0:
            self._lane.append((self.now, seq, fn, args))
        else:
            heappush(self._timers, (self.now + delay, seq, fn, args))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def delay(self, seconds: float, layer: str, segment: str) -> float:
        """A timed, attributed step, to be yielded on the spot: books
        ``seconds`` to the ``layer.segment`` critical-path bucket of the
        attached tracer (if any) and returns them as the plain ``float``
        a process sleeps on. Instrumenting a modelled delay is this one
        line."""
        if seconds < 0:
            raise ValueError(f"negative delay: {seconds!r}")
        if self.tracer is not None:
            self.tracer.charge(self, layer, segment, seconds)
        return float(seconds)

    def event(self) -> "Event":
        from .sync import Event

        return Event(self)

    def spawn(self, generator: Generator, name: str = "process") -> Process:
        return Process(self, generator, name)

    # -- running ----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until both queues drain, ``until`` is reached, or a stop.

        Returns the clock value at exit. An uncaught exception in a process
        with no joiner is re-raised here, so tests fail loudly.
        """
        self._stop_requested = False
        timers = self._timers
        lane = self._lane
        lane_popleft = lane.popleft
        dispatched = 0
        while (lane or timers) and not self._stop_requested:
            # Two-way merge of the sorted lane and the timer heap (this
            # loop is the engine's innermost cycle). Sequence numbers are
            # unique, so the tuple comparison never reaches the
            # (uncomparable) callback.
            if lane and (not timers or lane[0] < timers[0]):
                entry = lane[0]
                if until is not None and entry[0] > until:
                    break
                lane_popleft()
            else:
                if until is not None and timers[0][0] > until:
                    break
                entry = heappop(timers)
            self.now = entry[0]
            dispatched += 1
            entry[2](*entry[3])
        self.events_dispatched += dispatched
        if self._crashed_process is not None:
            process, exc = self._crashed_process
            self._crashed_process = None
            raise SimulationError(f"process {process.name!r} crashed") from exc
        if until is not None and self.now < until and not self._stop_requested:
            self.now = until
        return self.now

    def run_process(self, generator: Generator, name: str = "main") -> Any:
        """Spawn ``generator``, run until *it* completes, and return its
        value. Other processes (daemons, background threads) may still be
        runnable when this returns — they simply stop being driven."""
        process = self.spawn(generator, name=name)
        process.subscribe(lambda _value, _exc: self.stop())
        self.run()
        if process.alive:
            raise SimulationError(f"process {name!r} did not finish (deadlock?)")
        if process.exception is not None:
            raise process.exception
        return process.value

    def stop(self) -> None:
        self._stop_requested = True
