"""Discrete-event simulation kernel used by every substrate in the repo."""

from .core import (
    Environment,
    Process,
    SimulationError,
    StopSimulation,
    Timeout,
    Waitable,
)
from .sync import Event, Lock
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
    "Tracer",
    "Span",
    "SPAN_NAMES",
    "SEGMENT_NAMES",
    "traced",
]
