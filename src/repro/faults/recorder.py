"""Crash-point recording: the registry half of the fault harness.

Every persistence-relevant boundary in the stack — NVMM ``pwb``/
``pfence``/``psync``, log-entry fills and commit-flag flips, cleanup
batch retirements, block write/flush completions, ext4 journal commits —
calls ``env.crash_points.hit(site, label)`` when a recorder is attached
to the :class:`~repro.sim.Environment`. With no recorder (the default)
each site costs one attribute load and an ``is not None`` check, and the
simulation is bit-identical to an uninstrumented run
(``tests/faults/test_recorder.py`` pins that).

Two modes share the class:

- **enumeration** — record every hit as a :class:`CrashPoint` (index,
  site, label, simulated time, optional probe annotations). One workload
  run yields the full ordered list of places a power failure could
  strike.
- **armed** — re-run the same deterministic workload with a trigger on
  one index: at the moment that boundary fires, a caller-supplied
  callback captures whatever state it needs (typically
  ``NvmmDevice.crash_image``) *synchronously inside the hook*, then the
  environment is stopped. Capturing inside the hook matters: a single
  process step can mutate NVMM again after the hook returns, so a
  deferred capture would not reflect the boundary it names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..sim import Environment


@dataclass(frozen=True)
class CrashPoint:
    """One place (and moment) a power failure could strike."""

    index: int          # position in the run's hit order (0-based)
    site: str           # e.g. "nvmm.pfence", "core.log.commit_word"
    label: str          # free-form detail from the hook site
    time: float         # simulated clock at the hit
    dirty_lines: int = 0  # unpersisted NVMM lines at risk (probe annotation)

    def __str__(self) -> str:
        return (f"#{self.index} {self.site} [{self.label}] "
                f"t={self.time:.9f} dirty={self.dirty_lines}")


class CrashPointRecorder:
    """Attached to ``env.crash_points``; collects hits and/or triggers.

    ``probe`` (optional): a zero-argument callable returning extra
    annotations for each recorded point — the explorer uses it to note
    how many NVMM lines are dirty at each boundary, which tells it where
    cache-line drop subsets are worth enumerating.
    """

    def __init__(self, env: Environment, record: bool = True,
                 probe: Optional[Callable[[], Dict[str, int]]] = None):
        if env.crash_points is not None:
            raise RuntimeError("environment already has a crash-point recorder")
        self.env = env
        self.record = record
        self.probe = probe
        self.points: List[CrashPoint] = []
        self.count = 0
        self.triggered: Optional[CrashPoint] = None
        self._trigger_index: Optional[int] = None
        self._trigger_callback: Optional[Callable[[], None]] = None
        env.crash_points = self

    # -- hook entry point (called by instrumented components) --------------

    def hit(self, site: str, label: str = "") -> None:
        index = self.count
        self.count += 1
        if self.record:
            annotations = self.probe() if self.probe is not None else {}
            self.points.append(CrashPoint(index, site, label, self.env.now,
                                          **annotations))
        if index == self._trigger_index:
            self._trigger_index = None
            self.triggered = CrashPoint(index, site, label, self.env.now)
            callback = self._trigger_callback
            self._trigger_callback = None
            if callback is not None:
                callback()
            self.env.stop()

    # -- arming -------------------------------------------------------------

    def arm(self, index: int, callback: Callable[[], None]) -> None:
        """Fire ``callback`` (then stop the environment) when hit number
        ``index`` occurs."""
        if index < 0:
            raise ValueError(f"crash-point index {index} must be >= 0")
        self._trigger_index = index
        self._trigger_callback = callback

    # -- teardown -----------------------------------------------------------

    def detach(self) -> None:
        if self.env.crash_points is self:
            self.env.crash_points = None

    def site_histogram(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for point in self.points:
            out[point.site] = out.get(point.site, 0) + 1
        return out
