"""Discrete-event simulation kernel used by every substrate in the repo."""

from .core import (
    Environment,
    Process,
    SimulationError,
    StopSimulation,
    Timeout,
    Waitable,
)
from .rng import zipf_ranks
from .sync import Event, Lock, Queue
from .trace import SEGMENT_NAMES, SPAN_NAMES, Span, Tracer, traced

__all__ = [
    "Environment",
    "Process",
    "SimulationError",
    "StopSimulation",
    "Timeout",
    "Waitable",
    "Event",
    "Lock",
    "Queue",
    "Tracer",
    "Span",
    "SPAN_NAMES",
    "SEGMENT_NAMES",
    "traced",
    "zipf_ranks",
]
