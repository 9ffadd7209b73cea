"""Execution tracing for simulated runs: causal spans.

Attach a :class:`Tracer` to an :class:`~repro.sim.core.Environment` and
instrumented components record **spans** (:meth:`Tracer.begin` /
:meth:`Tracer.end`) — a causal tree per request, and the tracer's only
data model. Every span carries a ``trace_id`` (shared by everything one
root operation caused), a ``span_id``, and a ``parent_id``. The trace
context propagates implicitly through the simulation's process model:
each :class:`~repro.sim.core.Process` keeps its own span stack keyed off
``env.active_process``, so a ``pwrite`` entering through ``repro.libc``
and descending through NVCache, the kernel, ext4, and the block device
forms one tree without any argument threading.

On top of spans sit three analysis features:

- **critical-path segments** (:meth:`Tracer.charge`) — simulated time
  attributed to a named ``layer.segment`` bucket on the *root* span of
  the current process. A modelled delay books itself through
  :meth:`Environment.delay <repro.sim.core.Environment.delay>`; only
  after-the-fact waits (lock, queue, log-full, QoS) call ``charge``
  directly. The residual is booked as ``<layer>.unattributed`` when the
  root closes, so a root span's segments always sum exactly to its
  end-to-end latency.
- **cross-process flows** (:meth:`Tracer.bind_entry` /
  :meth:`Tracer.link_entry`) — a log entry filled inside one trace and
  retired later by the cleanup thread links the drain batch's span back
  to the originating write's trace; the Perfetto export renders these
  as flow arrows (``s``/``f`` events).
- **head sampling** — ``sample_rate`` decides *at the root* whether a
  trace is recorded, using a private seeded RNG so runs are
  deterministic and the simulation's own RNG streams are untouched.

Tracing never schedules events, never reads anything but ``env.now``,
and never touches the simulated clock: results are bit-identical with
tracing on, sampled, or off (pinned by ``tests/obs/test_purity.py``).

The span and segment name vocabularies are closed sets
(:data:`SPAN_NAMES`, :data:`SEGMENT_NAMES`): emitting an unknown name
raises, and ``tools/check_docs.py`` enforces that every name is
documented in docs/OBSERVABILITY.md, both directions.

Usage::

    env = Environment()
    env.tracer = Tracer()
    ... run a workload ...
    env.tracer.to_chrome_json("trace.json")   # open in Perfetto
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Every span name an instrumented component may emit, as
#: ``layer.operation``. Closed set: ``Tracer.begin`` rejects others, and
#: tools/check_docs.py keeps docs/OBSERVABILITY.md in sync.
SPAN_NAMES = frozenset({
    # libc entry points (roots of application traces)
    "libc.open", "libc.close", "libc.read", "libc.write",
    "libc.pread", "libc.pwrite", "libc.fsync", "libc.fdatasync",
    "libc.sync",
    # NVCache internals
    "core.log_append", "core.commit", "core.read_hit", "core.read_miss",
    "core.drain_batch",
    # Paging-mode internals (docs/POLICIES.md)
    "core.page_update", "core.writeback_batch",
    # kernel
    "kernel.read", "kernel.write", "kernel.fsync", "kernel.sync",
    "kernel.syncfs", "kernel.writeback",
    # filesystem
    "fs.journal_commit",
    # devices
    "block.read", "block.write", "block.flush",
    "nvmm.psync",
})

#: Every critical-path segment a charge may land in, as
#: ``layer.segment``. The ``*.unattributed`` family is the residual a
#: root span books for time no instrumented delay claimed.
SEGMENT_NAMES = frozenset({
    "core.lock_wait", "core.log_full_wait", "core.write_overhead",
    "core.read_overhead", "core.retire",
    # Paging mode: writer stalled waiting for a free page slot.
    "core.page_full_wait",
    # Multi-tenant QoS admission gate (repro.core.qos): time blocked on
    # a tenant log-space quota vs. an I/O-class share cap.
    "core.quota_wait", "core.admission_wait",
    "kernel.syscall", "kernel.page_cache_lookup", "kernel.copy",
    "fs.journal_cpu", "fs.block_request",
    # Page-cache-less filesystems (NOVA, Ext4-DAX, tmpfs): one page
    # access / one durability barrier, CPU and media cost together.
    "fs.direct_read", "fs.direct_write", "fs.commit",
    "block.queue_wait", "block.read_service", "block.write_service",
    "block.flush_service",
    "nvmm.store", "nvmm.load", "nvmm.fence",
    "libc.unattributed", "core.unattributed", "kernel.unattributed",
    "fs.unattributed", "block.unattributed", "nvmm.unattributed",
})


@dataclass
class Span:
    """One node of a causal trace tree (times in simulated seconds)."""

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    layer: str
    name: str
    track: str
    start: float
    end: float = 0.0
    args: Dict[str, object] = field(default_factory=dict)
    #: Root spans only: ``layer.segment`` -> attributed seconds.
    segments: Dict[str, float] = field(default_factory=dict)
    #: Incoming flows: ``(trace_id, span_id, bind_time, track)`` of the
    #: originating span of each log entry this span retired.
    links: List[Tuple[int, int, float, str]] = field(default_factory=list)
    #: Span-stack key of the owning process (internal).
    owner: object = field(default=None, repr=False, compare=False)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def qualified(self) -> str:
        return f"{self.layer}.{self.name}"


class _Unsampled:
    """Stack placeholder for an unsampled trace: keeps begin/end
    balanced while recording nothing."""

    __slots__ = ("owner",)

    def __init__(self, owner):
        self.owner = owner


class Tracer:
    """Collects spans; bounded to protect long runs."""

    def __init__(self, capacity: int = 200_000, sample_rate: float = 1.0,
                 seed: int = 0):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate {sample_rate} outside [0, 1]")
        self.capacity = capacity
        self.sample_rate = sample_rate
        self.spans: List[Span] = []
        self.dropped = 0
        # Private RNG, consumed only by root-span sampling decisions:
        # never the simulation's own streams, so tracing cannot perturb
        # a workload.
        self._rng = random.Random(seed)
        self._next_trace = itertools.count(1)
        self._next_span = itertools.count(1)
        # Per-process span stacks, keyed by the Process object (or None
        # for code running outside any process).
        self._stacks: Dict[object, list] = {}
        self._open_spans = 0
        # Log seq -> (trace_id, span_id, bind_time, track) of the span
        # that filled the entry; consumed when the cleanup thread
        # retires it (see bind_entry/link_entry).
        self._entry_origins: Dict[int, Tuple[int, int, float, str]] = {}

    # -- spans -------------------------------------------------------------

    def begin(self, env, layer: str, name: str, **args):
        """Open a span on the active process's stack and return a token
        for :meth:`end`. Roots draw the head-sampling decision; children
        inherit their root's fate."""
        qualified = f"{layer}.{name}"
        if qualified not in SPAN_NAMES:
            raise ValueError(f"unknown span name {qualified!r}; add it to "
                             "repro.sim.trace.SPAN_NAMES and document it")
        process = env.active_process
        stack = self._stacks.get(process)
        if stack is None:
            stack = self._stacks[process] = []
        if stack:
            parent = stack[-1]
            if isinstance(parent, _Unsampled):
                token = _Unsampled(process)
                stack.append(token)
                return token
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            if self._rng.random() >= self.sample_rate:
                token = _Unsampled(process)
                stack.append(token)
                return token
            trace_id = next(self._next_trace)
            parent_id = None
            # Root spans of tenant-attributed work carry the tenant id
            # and I/O class, so traces slice per tenant (multi-tenancy;
            # see docs/MULTITENANCY.md).
            qos = env.qos
            if qos is not None:
                tags = qos.context_tags()
                if tags is not None:
                    args = dict(args)
                    args["tenant"], args["io_class"] = tags
        track = process.name if process is not None else "main"
        span = Span(trace_id=trace_id, span_id=next(self._next_span),
                    parent_id=parent_id, layer=layer, name=name, track=track,
                    start=env.now, args=dict(args), owner=process)
        stack.append(span)
        self._open_spans += 1
        return span

    def end(self, env, token, **args) -> None:
        """Close the span ``token`` (must be the top of its stack)."""
        stack = self._stacks.get(token.owner)
        if not stack or stack[-1] is not token:
            raise ValueError("span end does not match the innermost open "
                             f"span of process {token.owner!r}")
        stack.pop()
        if not stack:
            del self._stacks[token.owner]
        if isinstance(token, _Unsampled):
            return
        span = token
        self._open_spans -= 1
        span.end = env.now
        if args:
            span.args.update(args)
        if span.parent_id is None:
            residual = span.duration - sum(span.segments.values())
            if residual > 1e-15:
                key = f"{span.layer}.unattributed"
                span.segments[key] = span.segments.get(key, 0.0) + residual
        if len(self.spans) >= self.capacity:
            self.dropped += 1
            return
        self.spans.append(span)

    def charge(self, env, layer: str, segment: str, amount: float) -> None:
        """Attribute ``amount`` simulated seconds to the named segment of
        the current process's *root* span (critical-path accounting)."""
        if amount == 0.0:
            return
        qualified = f"{layer}.{segment}"
        if qualified not in SEGMENT_NAMES:
            raise ValueError(f"unknown segment name {qualified!r}; add it to "
                             "repro.sim.trace.SEGMENT_NAMES and document it")
        stack = self._stacks.get(env.active_process)
        if not stack:
            return
        root = stack[0]
        if isinstance(root, _Unsampled):
            return
        root.segments[qualified] = root.segments.get(qualified, 0.0) + amount

    def current_trace_id(self, env) -> Optional[int]:
        """Trace id of the active process's current trace (exemplars)."""
        stack = self._stacks.get(env.active_process)
        if not stack:
            return None
        root = stack[0]
        return None if isinstance(root, _Unsampled) else root.trace_id

    # -- cross-process flows (log entry -> cleanup batch) ------------------

    def bind_entry(self, env, seq: int) -> None:
        """Remember that log entry ``seq`` was filled by the current
        trace, so the drain batch retiring it can link back."""
        stack = self._stacks.get(env.active_process)
        if not stack:
            return
        root = stack[0]
        if isinstance(root, _Unsampled):
            return
        self._entry_origins[seq] = (root.trace_id, root.span_id, env.now,
                                    root.track)

    def link_entry(self, token, seq: int) -> None:
        """Link entry ``seq``'s originating trace into the (batch) span
        ``token``; one link per distinct origin span."""
        origin = self._entry_origins.pop(seq, None)
        if origin is None or isinstance(token, _Unsampled):
            return
        if any(link[1] == origin[1] for link in token.links):
            return
        token.links.append(origin)

    # -- queries -----------------------------------------------------------

    def roots(self) -> List[Span]:
        return [span for span in self.spans if span.parent_id is None]

    def spans_for(self, trace_id: int) -> List[Span]:
        return [span for span in self.spans if span.trace_id == trace_id]

    def attribution(self, root_name: Optional[str] = None) -> Dict[str, float]:
        """Aggregate critical-path segments across root spans (optionally
        only roots named ``layer.operation``): segment -> total seconds."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span.parent_id is not None:
                continue
            if root_name is not None and span.qualified != root_name:
                continue
            for segment, amount in span.segments.items():
                totals[segment] = totals.get(segment, 0.0) + amount
        return totals

    def attribution_by_root(self) -> Dict[str, Dict[str, float]]:
        """Critical-path segments split by root span name: ``root
        qualified name -> {segment -> total seconds}``. The capacity
        explorer (docs/CAPACITY.md) uses this to tell request-side waits
        (``libc.pwrite`` roots) from background drain costs
        (``core.drain_batch`` roots) apart when diffing two cells."""
        by_root: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            if span.parent_id is not None:
                continue
            totals = by_root.setdefault(span.qualified, {})
            for segment, amount in span.segments.items():
                totals[segment] = totals.get(segment, 0.0) + amount
        return by_root

    # -- metrics (obs.trace.*) ---------------------------------------------

    def register_metrics(self, registry) -> None:
        """Expose buffer health under ``obs.trace.*`` so overflow is
        visible in the metrics dashboard (see docs/OBSERVABILITY.md)."""
        m = registry.scope("obs.trace")
        m.counter("spans_recorded", unit="spans",
                  help="closed spans in the buffer",
                  fn=lambda: len(self.spans))
        m.counter("dropped", unit="records",
                  help="spans dropped at capacity",
                  fn=lambda: self.dropped)
        m.gauge("spans_open", unit="spans",
                help="spans begun but not yet ended",
                fn=lambda: self._open_spans)

    # -- export ------------------------------------------------------------

    def to_chrome_events(self) -> List[dict]:
        """Chrome/Perfetto trace-event list: ``M`` thread metadata,
        ``X`` complete events for spans, and ``s``/``f`` flow pairs for
        cross-process links (µs units)."""
        tids: Dict[str, int] = {}

        def tid_of(track: str) -> int:
            tid = tids.get(track)
            if tid is None:
                tid = tids[track] = len(tids) + 1
            return tid

        body: List[dict] = []
        for span in self.spans:
            args: Dict[str, object] = {"trace_id": span.trace_id,
                                       "span_id": span.span_id}
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            args.update(span.args)
            if span.segments:
                args["segments"] = dict(sorted(span.segments.items()))
            body.append({
                "name": span.qualified,
                "cat": span.layer,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": max(span.duration * 1e6, 0.001),
                "pid": 1,
                "tid": tid_of(span.track),
                "args": args,
            })
        for span in self.spans:
            for trace_id, span_id, bind_time, track in span.links:
                body.append({
                    "name": "log_entry",
                    "cat": "flow",
                    "ph": "s",
                    "id": span_id,
                    "ts": bind_time * 1e6,
                    "pid": 1,
                    "tid": tid_of(track),
                    "args": {"trace_id": trace_id},
                })
                body.append({
                    "name": "log_entry",
                    "cat": "flow",
                    "ph": "f",
                    "bp": "e",
                    "id": span_id,
                    "ts": max(span.start, bind_time) * 1e6,
                    "pid": 1,
                    "tid": tid_of(span.track),
                    "args": {"trace_id": trace_id},
                })
        meta: List[dict] = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
            "args": {"name": "repro-sim"},
        }]
        for track, tid in tids.items():
            meta.append({"name": "thread_name", "ph": "M", "pid": 1,
                         "tid": tid, "args": {"name": track}})
        return meta + body

    def to_chrome_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": self.to_chrome_events()}, handle)

    def summary(self) -> str:
        """Per-span-name totals — a quick profile."""
        traces = len({span.trace_id for span in self.spans})
        lines = [f"{len(self.spans)} spans in {traces} traces"
                 + (f" ({self.dropped} dropped)" if self.dropped else "")]
        totals: Dict[str, List[float]] = {}
        for span in self.spans:
            totals.setdefault(span.qualified, []).append(span.duration)
        for name, durations in sorted(totals.items()):
            lines.append(
                f"  {name}: n={len(durations)} "
                f"total={sum(durations) * 1e3:.2f}ms "
                f"mean={sum(durations) / len(durations) * 1e6:.1f}us")
        return "\n".join(lines)


def _spanned(tracer, env, layer, name, fn, self, args, kwargs):
    token = tracer.begin(env, layer, name)
    try:
        result = yield from fn(self, *args, **kwargs)
    finally:
        tracer.end(env, token)
    return result


def traced(layer: str, name: str):
    """Decorator for methods that return a generator (generator methods,
    or plain forwarders such as :class:`repro.libc.Libc`'s) on components
    carrying ``self.env``: wraps each call in a ``layer.name`` span when
    a tracer is attached.
    With no tracer the *inner* generator is returned as-is — the untraced
    hot path pays one attribute check, never an extra ``yield from``
    frame (``bench/run.py --trace 1`` counts them per layer)."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            tracer = self.env.tracer
            if tracer is None:
                return fn(self, *args, **kwargs)
            return _spanned(tracer, self.env, layer, name, fn, self,
                            args, kwargs)
        return wrapper
    return decorate
