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


class Lock:
    """Mutual exclusion with FIFO hand-off."""

    __slots__ = ("env", "name", "locked", "_waiters")

    def __init__(self, env: Environment, name: str = "lock"):
        self.env = env
        self.name = name
        self.locked = False
        # Created on first contention: most locks (two per NVCache page
        # descriptor) never see any.
        self._waiters: Optional[Deque[Waitable]] = None

    @property
    def waiting(self) -> int:
        """Processes queued behind the holder."""
        return len(self._waiters) if self._waiters else 0

    def acquire(self) -> Waitable:
        if not self.locked:
            self.locked = True
            # Uncontended fast path: the environment's shared pre-fired
            # grant token, no allocation.
            return self.env._granted
        waitable = Waitable(self.env)
        if self._waiters is None:
            self._waiters = deque()
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

