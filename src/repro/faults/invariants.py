"""The one judge of a crash case: DESIGN.md §3's durability contract as
two properties.

- **durable_linearizability** — the recovered state equals the oracle's
  *before* state (the in-flight op dropped) or its *after* state (the
  in-flight op applied): no acknowledged op is lost and the op in flight
  is all-or-nothing. Each path neither side explains gets one message,
  naming either the acknowledged byte that was lost or the in-flight op
  that was half-applied.
- **recovery_idempotence** — running recovery again on the recovered
  machine applies nothing and changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .oracle import OracleOp
from .recorder import CrashPoint

State = Dict[str, Optional[bytes]]


@dataclass
class Violation:
    """One property failure at one crash case (``where`` is the case's
    :meth:`CrashCase.describe`)."""

    invariant: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.message}\n    at {self.where}"


@dataclass
class CrashCase:
    """One (point, image) crash: the oracle's two legal states, what the
    two recoveries produced, and the judge's verdict."""

    point: CrashPoint
    variant: str                      # "drop-all", "keep-subset-N", "end-of-run"
    keep_lines: Tuple[int, ...]
    before: State                     # oracle: in-flight op dropped
    after: State                      # oracle: in-flight op applied
    inflight: Optional[OracleOp]      # op in flight at the crash, if any
    state: State                      # read back after first recovery
    state2: State                     # read back after second recovery
    applied: int = 0                  # report.entries_applied
    applied2: int = 0                 # second recovery: must be 0
    ns_replayed2: int = 0             # second recovery: must be 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        inflight = self.inflight.describe() if self.inflight else "none"
        return (f"point {self.point} variant={self.variant} "
                f"keep={list(self.keep_lines)} inflight=({inflight})")


def _show(content: Optional[bytes], limit: int = 24) -> str:
    if content is None:
        return "<absent>"
    if len(content) <= limit:
        return repr(content)
    return f"{len(content)} bytes {content[:limit]!r}..."


def _first_diff(got: bytes, want: bytes) -> int:
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return i
    return min(len(got), len(want))


def _lost_byte(case: CrashCase, path: str) -> Optional[int]:
    """Where ``path`` diverges from its acknowledged (*before*) state,
    or None when the divergence lies in what the in-flight op writes."""
    got, want = case.state.get(path), case.before.get(path)
    at = 0 if got is None or want is None else _first_diff(got, want)
    # Only an unlink or a rename may remove a file, and for those an
    # absent file is one of the two legal sides.
    if got is None or want == case.after.get(path):
        return at
    op = case.inflight
    if op.kind != "pwrite":
        return None                   # a namespace op: the whole path is in flight
    start = min(op.offset, len(want or b""))   # a hole it zero-fills counts
    return None if start <= at < op.offset + len(op.data) else at


def _linearizability(case: CrashCase) -> List[str]:
    if case.state in (case.before, case.after):
        return []
    out = []
    for path in sorted(case.before.keys() | case.state.keys()):
        got = case.state.get(path)
        want_b, want_a = case.before.get(path), case.after.get(path)
        if got in (want_b, want_a):
            continue
        at = _lost_byte(case, path)
        if at is None:
            out.append(f"{path}: in-flight ({case.inflight.describe()}) "
                       f"half-applied — recovered {_show(got)}, legal: "
                       f"{_show(want_b)} / {_show(want_a)}")
        else:
            out.append(f"{path}: acknowledged state lost at byte {at} — "
                       f"expected {_show(want_b)}, recovered {_show(got)}")
    if not out:
        out.append("recovered state mixes the before- and after-sides "
                   "across paths (each path legal, combination not)")
    return out


def _idempotence(case: CrashCase) -> List[str]:
    out = []
    if case.applied2 or case.ns_replayed2:
        out.append(
            f"second recovery re-applied work: {case.applied2} entries, "
            f"{case.ns_replayed2} namespace ops (log not emptied)")
    if case.state2 != case.state:
        diffs = [p for p in set(case.state) | set(case.state2)
                 if case.state.get(p, None) != case.state2.get(p, None)]
        out.append(
            f"second recovery changed file state on {sorted(diffs)}")
    return out


def judge(case: CrashCase) -> List[Violation]:
    """Every violation of the two properties at ``case`` (empty = holds)."""
    return [Violation(name, case.describe(), message)
            for name, check in (("durable_linearizability", _linearizability),
                                ("recovery_idempotence", _idempotence))
            for message in check(case)]
