"""Typed metric primitives and the hierarchical registry.

Every metric lives in a process-wide :class:`MetricsRegistry` under a
dotted ``layer.component.metric`` name (e.g. ``block.ssd0.write_latency``,
``core.log.occupancy``). Three kinds exist, mirroring the conventional
monitoring taxonomy:

- :class:`Counter` — monotonically non-decreasing event count. Either
  incremented explicitly (``inc``) or *fn-backed*: a read-only view over
  an existing stats field (``fn=lambda: stats.writes``), which is how the
  legacy per-module stats dataclasses are exposed without being replaced.
- :class:`Gauge` — a value that can go up and down (log occupancy, dirty
  pages, queue depth). Also optionally fn-backed.
- :class:`Histogram` — log-bucketed distribution for latencies: geometric
  bucket bounds ``start * factor**i``, with p50/p95/p99 read off the
  cumulative bucket counts by linear interpolation inside the crossing
  bucket.

The registry rejects name collisions and malformed names outright: a
metric name is the contract between the instrumented code, the exporters,
and ``docs/OBSERVABILITY.md`` (enforced by ``tools/check_docs.py``), so a
silent re-registration would corrupt all three.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Callable, Dict, Iterator, List, Optional

#: layer.component.metric — at least three lowercase dotted segments.
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+){2,}$")


def sanitize(component: str) -> str:
    """Make a device/component name usable as a metric path segment
    (``dm-writecache`` -> ``dm_writecache``)."""
    return re.sub(r"[^a-z0-9_]", "_", component.lower())


class Metric:
    """Common surface shared by the three metric kinds."""

    kind = "metric"

    __slots__ = ("name", "unit", "help")

    def __init__(self, name: str, unit: str = "", help: str = ""):
        self.name = name
        self.unit = unit
        self.help = help

    def value(self) -> float:
        raise NotImplementedError


class Counter(Metric):
    """Monotonic event count; explicit (``inc``) or fn-backed."""

    kind = "counter"

    __slots__ = ("_count", "_fn")

    def __init__(self, name: str, unit: str = "", help: str = "",
                 fn: Optional[Callable[[], float]] = None):
        super().__init__(name, unit, help)
        self._count = 0
        self._fn = fn

    def inc(self, amount: int = 1) -> None:
        if self._fn is not None:
            raise ValueError(f"counter {self.name!r} is fn-backed (read-only)")
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._count += amount

    def value(self) -> float:
        return self._fn() if self._fn is not None else self._count


class Gauge(Metric):
    """Point-in-time value; explicit (``set``) or fn-backed."""

    kind = "gauge"

    __slots__ = ("_value", "_fn")

    def __init__(self, name: str, unit: str = "", help: str = "",
                 fn: Optional[Callable[[], float]] = None):
        super().__init__(name, unit, help)
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name!r} is fn-backed (read-only)")
        self._value = value

    def value(self) -> float:
        return self._fn() if self._fn is not None else self._value


class Histogram(Metric):
    """Log-bucketed distribution (latencies, batch sizes).

    Bucket ``i`` covers ``(bounds[i-1], bounds[i]]`` with geometric
    bounds ``start * factor**i``; one overflow bucket catches everything
    above the last bound. The defaults (100 ns start, x2, 40 buckets)
    span 100 ns to ~55 000 s — every latency the simulation produces.
    """

    kind = "histogram"

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max",
                 "exemplars")

    def __init__(self, name: str, unit: str = "s", help: str = "",
                 start: float = 1e-7, factor: float = 2.0, buckets: int = 40):
        super().__init__(name, unit, help)
        if start <= 0 or factor <= 1.0 or buckets < 1:
            raise ValueError(
                f"histogram {name!r}: need start > 0, factor > 1, buckets >= 1")
        self.bounds: List[float] = [start * factor ** i for i in range(buckets)]
        self.counts: List[int] = [0] * (buckets + 1)  # +1 overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0
        # Tail-latency exemplars: bucket index -> (trace_id, value) of the
        # latest traced sample landing there (see exemplar_near).
        self.exemplars: Dict[int, tuple] = {}

    def observe(self, value: float, trace_id: Optional[int] = None) -> None:
        if value < 0:
            raise ValueError(f"histogram {self.name!r}: negative value {value}")
        bucket = bisect_left(self.bounds, value)
        self.counts[bucket] += 1
        if trace_id is not None:
            self.exemplars[bucket] = (trace_id, value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def value(self) -> float:
        """Scalar view used by snapshots/samplers: the observation count."""
        return self.count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0 < q <= 1) from the buckets.

        Walks the cumulative counts to the crossing bucket, then linearly
        interpolates between the bucket's lower and upper bound (clamped
        to the observed min/max so a single-sample histogram reports the
        sample, not a bucket edge)."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile {q} outside (0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = (self.bounds[index] if index < len(self.bounds)
                         else self.max)
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
        return self.max

    def percentiles(self) -> Dict[str, float]:
        return {"p50": self.quantile(0.50), "p95": self.quantile(0.95),
                "p99": self.quantile(0.99)}

    def exemplar_near(self, q: float) -> Optional[tuple]:
        """The ``(trace_id, value)`` exemplar closest to the q-quantile:
        the quantile-crossing bucket's exemplar if present, else the
        nearest recorded bucket above it, else the nearest below.
        ``None`` when no traced samples were observed."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile {q} outside (0, 1]")
        if not self.exemplars:
            return None
        rank = q * self.count
        cumulative = 0
        crossing = len(self.counts) - 1
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if bucket_count and cumulative >= rank:
                crossing = index
                break
        above = [i for i in self.exemplars if i >= crossing]
        if above:
            return self.exemplars[min(above)]
        return self.exemplars[max(self.exemplars)]


class MetricsRegistry:
    """Process-wide, hierarchically named metric store.

    Names are dotted ``layer.component.metric`` paths; registering the
    same name twice raises, as does a malformed name. ``scope(prefix)``
    returns a view that prepends ``prefix.`` to everything it creates —
    the idiom each instrumented component uses::

        m = registry.scope(f"block.{sanitize(self.name)}")
        m.counter("reads", fn=lambda: stats.reads)
        self._m_read_latency = m.histogram("read_latency")
    """

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}

    # -- registration ------------------------------------------------------

    def register(self, metric: Metric) -> Metric:
        if not _NAME_RE.match(metric.name):
            raise ValueError(
                f"invalid metric name {metric.name!r}: must be dotted "
                "layer.component.metric of [a-z0-9_] segments")
        if metric.name in self._metrics:
            raise ValueError(f"metric {metric.name!r} already registered")
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, unit: str = "", help: str = "",
                fn: Optional[Callable[[], float]] = None) -> Counter:
        return self.register(Counter(name, unit, help, fn=fn))

    def gauge(self, name: str, unit: str = "", help: str = "",
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        return self.register(Gauge(name, unit, help, fn=fn))

    def histogram(self, name: str, unit: str = "s", help: str = "",
                  start: float = 1e-7, factor: float = 2.0,
                  buckets: int = 40) -> Histogram:
        return self.register(Histogram(name, unit, help, start=start,
                                       factor=factor, buckets=buckets))

    def scope(self, prefix: str) -> "Scope":
        return Scope(self, prefix)

    # -- lookup ------------------------------------------------------------

    def get(self, name: str, default=None) -> Optional[Metric]:
        """The metric registered under ``name`` (dict.get semantics)."""
        return self._metrics.get(name, default)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def collect(self, prefix: Optional[str] = None) -> Iterator[Metric]:
        """Metrics in name order, optionally restricted to a dotted
        prefix (``collect('block')`` yields every block-layer metric)."""
        for name in self.names():
            if prefix is None or name == prefix or name.startswith(prefix + "."):
                yield self._metrics[name]

    def layers(self) -> List[str]:
        return sorted({name.split(".", 1)[0] for name in self._metrics})

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Scalar value of every metric (histograms report their count);
        the form the :class:`~repro.obs.sampler.Sampler` records."""
        return {name: metric.value()
                for name, metric in sorted(self._metrics.items())}


class Scope:
    """A prefixed view of a registry (see :meth:`MetricsRegistry.scope`)."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str):
        self._registry = registry
        self._prefix = prefix

    def counter(self, name: str, unit: str = "", help: str = "",
                fn: Optional[Callable[[], float]] = None) -> Counter:
        return self._registry.counter(f"{self._prefix}.{name}", unit, help, fn=fn)

    def gauge(self, name: str, unit: str = "", help: str = "",
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        return self._registry.gauge(f"{self._prefix}.{name}", unit, help, fn=fn)

    def histogram(self, name: str, unit: str = "s", help: str = "",
                  start: float = 1e-7, factor: float = 2.0,
                  buckets: int = 40) -> Histogram:
        return self._registry.histogram(f"{self._prefix}.{name}", unit, help,
                                        start=start, factor=factor,
                                        buckets=buckets)
