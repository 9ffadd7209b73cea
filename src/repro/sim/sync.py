"""Synchronization primitives for simulation processes.

All primitives hand out :class:`~repro.sim.core.Waitable` objects; a process
blocks with ``yield lock.acquire()`` and so on. Wake-ups are FIFO, which
keeps runs deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .core import Environment, SimulationError, Waitable


class Event(Waitable):
    """One-shot event. ``set()`` wakes every current and future waiter."""

    __slots__ = ()

    def set(self, value: Any = None) -> None:
        self._fire(value)

    def fail(self, exception: BaseException) -> None:
        self._fire(None, exception)

    def wait(self) -> "Event":
        return self


class Lock:
    """Mutual exclusion with FIFO hand-off."""

    __slots__ = ("env", "name", "locked", "_waiters")

    def __init__(self, env: Environment, name: str = "lock"):
        self.env = env
        self.name = name
        self.locked = False
        self._waiters: Deque[Waitable] = deque()

    def acquire(self) -> Waitable:
        if not self.locked:
            self.locked = True
            # Uncontended fast path: the environment's shared pre-fired
            # grant token, no allocation.
            return self.env._granted
        waitable = Waitable(self.env)
        self._waiters.append(waitable)
        return waitable

    def release(self) -> None:
        if not self.locked:
            raise SimulationError(f"release of unlocked {self.name!r}")
        if self._waiters:
            # Hand the lock directly to the next waiter.
            self._waiters.popleft()._fire(None)
        else:
            self.locked = False

    def try_acquire(self) -> bool:
        """Non-blocking acquire; returns True on success."""
        if self.locked:
            return False
        self.locked = True
        return True


class Queue:
    """Unbounded (or bounded) FIFO channel between processes."""

    __slots__ = ("env", "name", "capacity", "_items", "_getters", "_putters")

    def __init__(self, env: Environment, capacity: Optional[int] = None, name: str = "queue"):
        self.env = env
        self.name = name
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Waitable] = deque()
        self._putters: Deque[Waitable] = deque()  # entries: (waitable, item)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Waitable:
        waitable = Waitable(self.env)
        if self._getters:
            self._getters.popleft()._fire(item)
            waitable._fire(None)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            waitable._fire(None)
        else:
            self._putters.append((waitable, item))
        return waitable

    def get(self) -> Waitable:
        waitable = Waitable(self.env)
        if self._items:
            item = self._items.popleft()
            if self._putters:
                putter, pending = self._putters.popleft()
                self._items.append(pending)
                putter._fire(None)
            waitable._fire(item)
        elif self._putters:
            putter, pending = self._putters.popleft()
            putter._fire(None)
            waitable._fire(pending)
        else:
            self._getters.append(waitable)
        return waitable
