"""Line-coverage collection for the crash-and-fault fuzzer.

The fitness signal is *which lines of the durability-critical code ran*:
everything under ``repro.core`` (log, nvcache, cleanup, recovery, ...)
and ``repro.fs``. A case that lights up a line no earlier case touched —
a rarely-taken replay branch, a cleanup retry path, a namespace-op
special case — is worth keeping in the corpus and mutating further.

Two backends, one behavior:

- ``sys.monitoring`` (PEP 669, Python >= 3.12): a ``LINE`` callback on
  the coverage tool id that returns ``DISABLE`` after the first hit per
  code location, re-enabled per capture via ``restart_events()``. Near
  zero overhead on hot loops.
- ``sys.settrace`` fallback (<= 3.11, or when the monitoring tool id is
  already claimed): the global hook prunes non-target frames at call
  time by returning ``None``, so only frames inside the scope pay for
  line events.

Both are pure observers on *wall-clock* machinery: they never touch the
simulation's event queue, clocks, RNGs, or metrics, so a run with the
collector attached is bit-identical (simulated time, stats, crash-point
stream) to the same run without it — pinned by
``tests/fuzz/test_coverage.py``, gated in CI.

Edges are strings: ``"core/log.py:214"`` for a line, and the executor
adds synthetic ``"site:core.log.commit_word"`` edges for crash-point
sites so that reaching a new persistence boundary counts as progress
even when no new line does.
"""

from __future__ import annotations

import gc
import sys
from typing import Dict, Optional, Set

#: Path fragments (relative to the ``repro`` package root, ``/``
#: separators) that are in scope for coverage.
SCOPE = ("core/", "fs/")


def _relative_scope_path(filename: str) -> Optional[str]:
    """Map an absolute ``co_filename`` to a scope-relative path like
    ``core/log.py``, or None when the file is out of scope."""
    normalized = filename.replace("\\", "/")
    marker = "/repro/"
    index = normalized.rfind(marker)
    if index < 0:
        return None
    tail = normalized[index + len(marker):]
    if tail.startswith(SCOPE):
        return tail
    return None


class _Capture:
    """Context manager for one collection window; ``edges`` holds the
    recorded set after exit (and live during the window)."""

    def __init__(self, collector: "CoverageCollector"):
        self._collector = collector
        self.edges: Set[str] = set()

    def __enter__(self) -> "_Capture":
        self._collector._begin(self.edges)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._collector._end()


class CoverageCollector:
    """Records scope-relative ``file.py:line`` edges during explicit
    capture windows. One collector per process; captures must not nest
    (the executor serializes them)."""

    def __init__(self, force_trace_hook: bool = False):
        self._edges: Optional[Set[str]] = None
        # Cache keyed by the code object itself (they are long-lived
        # module attributes); value None = out of scope.
        self._rel: Dict[object, Optional[str]] = {}
        self._gc_was_enabled = True
        self.backend = "settrace"
        self._monitoring = None
        if not force_trace_hook and hasattr(sys, "monitoring"):
            monitoring = sys.monitoring
            try:
                monitoring.use_tool_id(monitoring.COVERAGE_ID, "repro-fuzz")
            except ValueError:
                pass  # someone else owns the coverage tool id
            else:
                monitoring.register_callback(
                    monitoring.COVERAGE_ID, monitoring.events.LINE,
                    self._on_line)
                self._monitoring = monitoring
                self.backend = "sys.monitoring"

    def capture(self) -> _Capture:
        return _Capture(self)

    # -- shared -------------------------------------------------------------

    def _rel_path(self, code) -> Optional[str]:
        try:
            return self._rel[code]
        except KeyError:
            rel = self._rel[code] = _relative_scope_path(code.co_filename)
            return rel

    def _begin(self, edges: Set[str]) -> None:
        if self._edges is not None:
            raise RuntimeError("coverage captures must not nest")
        self._edges = edges
        # Hold the cyclic collector for the window: abandoned simulation
        # generators (crashed runs form env <-> frame cycles) are
        # finalized by GC at allocation-count thresholds, and a
        # GeneratorExit unwinding through in-scope frames mid-capture
        # would record exception-handler lines that belong to a *dead*
        # earlier case — making edges depend on process heap history.
        # Finalization now happens between windows, where nothing is
        # recording.
        self._gc_was_enabled = gc.isenabled()
        gc.disable()
        if self._monitoring is not None:
            monitoring = self._monitoring
            monitoring.set_events(monitoring.COVERAGE_ID,
                                  monitoring.events.LINE)
            # Re-arm locations DISABLEd by earlier captures.
            monitoring.restart_events()
        else:
            sys.settrace(self._trace_global)

    def _end(self) -> None:
        if self._monitoring is not None:
            self._monitoring.set_events(self._monitoring.COVERAGE_ID, 0)
        else:
            sys.settrace(None)
        self._edges = None
        if self._gc_was_enabled:
            gc.enable()

    # -- sys.monitoring backend ---------------------------------------------

    def _on_line(self, code, line_number: int):
        rel = self._rel_path(code)
        if rel is not None and self._edges is not None:
            self._edges.add(f"{rel}:{line_number}")
        return self._monitoring.DISABLE

    # -- settrace backend ---------------------------------------------------

    def _trace_global(self, frame, event: str, arg):
        if event != "call" or self._rel_path(frame.f_code) is None:
            return None
        return self._trace_local

    def _trace_local(self, frame, event: str, arg):
        if event == "line" and self._edges is not None:
            rel = self._rel_path(frame.f_code)
            if rel is not None:
                self._edges.add(f"{rel}:{frame.f_lineno}")
        return self._trace_local
