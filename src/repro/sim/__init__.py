"""Discrete-event simulation kernel used by every substrate in the repo."""

from .core import (
    CalendarQueue,
    Environment,
    Process,
    SimulationError,
    StopSimulation,
    Timeout,
    Waitable,
)
from .rng import DeterministicRandom, shuffled, zipf_ranks
from .sync import Condition, Event, Lock, Queue, Semaphore
from .trace import SEGMENT_NAMES, SPAN_NAMES, Span, Tracer, traced

__all__ = [
    "CalendarQueue",
    "Environment",
    "Process",
    "SimulationError",
    "StopSimulation",
    "Timeout",
    "Waitable",
    "Event",
    "Lock",
    "Condition",
    "Semaphore",
    "Queue",
    "Tracer",
    "Span",
    "SPAN_NAMES",
    "SEGMENT_NAMES",
    "traced",
    "DeterministicRandom",
    "zipf_ranks",
    "shuffled",
]
