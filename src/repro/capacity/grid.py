"""Declarative configuration grids for the what-if capacity explorer.

A *grid* is a cartesian product of named axes over a base cell
configuration; a *cell* is one fully deterministic multi-tenant run
(same seeded traffic in every cell — only the swept knobs differ, so a
difference between two cells is attributable to configuration, never to
workload noise). The paper's Figs 4–6 each correspond to a single cell
of such a grid; the explorer renders the whole map.

Sweepable knobs (``KNOBS``; anything else in an axis name raises):

- ``tenants``    — logical clients in the mix (the *scale* axis);
- ``log_kib``    — NVMM log size in KiB (4 KiB entries, so
  ``log_kib=64`` is a 16-entry log);
- ``batch_min`` / ``batch_max`` — cleanup aggressiveness (entries the
  cleanup thread waits for / drains per fsync batch);
- ``drain``      — SSD drain-rate multiplier (scales the calibrated
  S4600 write path: 2.0 = an SSD that drains twice as fast);
- ``stack``      — system under test (``nvcache+ssd`` … ``ssd``,
  ``nova``, ``ext4-dax``; see repro.harness.systems.SYSTEM_NAMES);
- ``cache_mode`` — nvcache design point (logging / paging / nvlog-lite,
  docs/POLICIES.md);
- ``policy``     — eviction/promotion policy for the cache mode;
- ``quota_entries`` / ``workers`` / ``operations`` / ``schedule`` /
  ``duration`` / ``seed`` — the tenancy engine's own knobs
  (docs/MULTITENANCY.md).

Cells are enumerated in row-major axis order and identified by a
canonical ``cell_id`` string (``tenants=8,log_kib=64``) that is stable
across runs, processes, and shards — the diff engine, the knee
detector, and ``tools/capacity_report.py --diff A B`` all address cells
by it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

from ..core import CACHE_MODES

#: Every axis/base key a grid may sweep or pin.
KNOBS = frozenset({
    "tenants", "log_kib", "batch_min", "batch_max", "drain", "stack",
    "cache_mode", "policy", "quota_entries", "workers", "operations",
    "schedule", "duration", "seed", "scale_factor", "qos",
})

#: Axes whose values are ordered magnitudes — eligible for knee
#: detection (the dominant-segment flip walk needs an ordering).
SCALE_KNOBS = frozenset({"tenants", "log_kib", "batch_min", "batch_max",
                         "drain", "quota_entries", "workers", "operations",
                         "duration"})


@dataclass(frozen=True)
class Axis:
    """One swept dimension: a knob name and its ordered values."""

    name: str
    values: Tuple

    def __post_init__(self):
        if self.name not in KNOBS:
            raise ValueError(f"unknown grid knob {self.name!r}; "
                             f"choose from {sorted(KNOBS)}")
        if len(self.values) < 1:
            raise ValueError(f"axis {self.name!r} needs at least one value")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"axis {self.name!r} repeats a value")


def _fmt(value) -> str:
    """Canonical value rendering for cell ids (floats shed their
    trailing zeros so ``2.0`` and ``2`` cannot alias two ids)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def cell_id(axes: Sequence[Axis], values: Sequence) -> str:
    return ",".join(f"{axis.name}={_fmt(value)}"
                    for axis, value in zip(axes, values))


@dataclass
class GridSpec:
    """A named grid: axes × base parameters (+ check expectations).

    ``expectations`` is the declarative gate ``tools/capacity_report.py
    --check`` enforces (docs/CAPACITY.md): each entry is a dict with a
    ``kind`` of ``dominant`` (cell's heaviest segment), ``knee`` (the
    dominant segment flips at an axis value), or ``moved`` (diffing two
    cells, latency left one segment and entered another).
    """

    name: str
    axes: List[Axis]
    base: Dict = field(default_factory=dict)
    expectations: List[Dict] = field(default_factory=list)

    def __post_init__(self):
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("axes must have distinct names")
        for key in self.base:
            if key not in KNOBS:
                raise ValueError(f"unknown base knob {key!r}")
        overlap = set(names) & set(self.base)
        if overlap:
            raise ValueError(f"knob(s) {sorted(overlap)} both swept and "
                             "pinned in base")

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(len(axis.values) for axis in self.axes)

    def __len__(self) -> int:
        total = 1
        for axis in self.axes:
            total *= len(axis.values)
        return total

    def cells(self) -> Iterator[Dict]:
        """Cell parameter dicts in row-major axis order; each carries
        its ``cell_id`` and is plain data (picklable, JSON-safe) so the
        shard engine can ship it to a worker process."""
        for values in itertools.product(*(axis.values for axis in self.axes)):
            params = dict(self.base)
            params.update(zip((axis.name for axis in self.axes), values))
            params["cell_id"] = cell_id(self.axes, values)
            yield params

    def cell_ids(self) -> List[str]:
        return [params["cell_id"] for params in self.cells()]

    def scale_axes(self) -> List[Axis]:
        return [axis for axis in self.axes if axis.name in SCALE_KNOBS
                and len(axis.values) >= 2]

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "axes": [{"name": axis.name, "values": list(axis.values)}
                     for axis in self.axes],
            "base": dict(sorted(self.base.items())),
            "expectations": list(self.expectations),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "GridSpec":
        return cls(name=data["name"],
                   axes=[Axis(axis["name"], tuple(axis["values"]))
                         for axis in data["axes"]],
                   base=dict(data.get("base", {})),
                   expectations=list(data.get("expectations", [])))

    @classmethod
    def from_json(cls, path: str) -> "GridSpec":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


def demo_grid(seed: int = 0) -> GridSpec:
    """The seeded 3×2 demo grid (tenants × log size) the CLI runs by
    default and CI gates with ``--check``. Small enough for a laptop,
    big enough that the dominant critical-path segment flips along the
    tenant axis and moves across the log axis — the documented knee and
    diff expectations live in docs/CAPACITY.md and are asserted here.
    """
    return GridSpec(
        name="demo",
        axes=[
            Axis("tenants", (4, 8, 16)),
            Axis("log_kib", (64, 128)),
        ],
        base={
            "seed": seed,
            "operations": 6,
            "workers": 8,
            "schedule": "bursty",
            "duration": 0.02,
            "stack": "nvcache+ssd",
            "scale_factor": 4096,
        },
        expectations=_DEMO_EXPECTATIONS,
    )


def explore_grid(seed: int = 0) -> GridSpec:
    """A wider map for local exploration (not a CI gate): three scale
    axes and the cache-mode design points. ~1–2 minutes sequentially;
    shard it with ``--jobs``."""
    return GridSpec(
        name="explore",
        axes=[
            Axis("tenants", (4, 8, 16, 32)),
            Axis("log_kib", (64, 128, 256)),
            Axis("cache_mode", tuple(CACHE_MODES)),
        ],
        base={
            "seed": seed,
            "operations": 6,
            "workers": 8,
            "schedule": "bursty",
            "duration": 0.02,
            "stack": "nvcache+ssd",
            "scale_factor": 4096,
        },
    )


#: The demo grid's empirically calibrated behaviour, asserted by
#: ``--check`` (the `capacity` CI suite) and pinned by tests/capacity;
#: prose walkthrough in docs/CAPACITY.md. Measured on the seeded demo
#: grid: with the 128 KiB log the stack is SSD-write bound at 4 tenants
#: but flips to log-full-wait bound at 8 (the knee), while doubling the
#: log at 4 tenants drains core.log_full_wait entirely.
_DEMO_EXPECTATIONS: List[Dict] = [
    # Below the knee a doubled log leaves the SSD write path dominant...
    {"kind": "dominant", "cell": "tenants=4,log_kib=128",
     "segment": "block.write_service"},
    # ...and at the far corner the log is saturated regardless of size.
    {"kind": "dominant", "cell": "tenants=16,log_kib=64",
     "segment": "core.log_full_wait"},
    # The tenant-axis knee: dominant segment flips at 8 tenants.
    {"kind": "knee", "axis": "tenants", "at": 8,
     "fixed": {"log_kib": 128}, "to": "core.log_full_wait"},
    # The log-axis knee mirrored: growing the log flips it back.
    {"kind": "knee", "axis": "log_kib", "at": 128,
     "fixed": {"tenants": 4}, "to": "block.write_service"},
    # Doubling the log at 4 tenants moves latency out of log-full
    # stalls (and the constant NVMM read work becomes the only grower).
    {"kind": "moved", "a": "tenants=4,log_kib=64",
     "b": "tenants=4,log_kib=128",
     "from": "core.log_full_wait", "to": "nvmm.load"},
]

GRIDS = {
    "demo": demo_grid,
    "explore": explore_grid,
}


def make_grid(name: str, seed: int = 0) -> GridSpec:
    try:
        factory = GRIDS[name]
    except KeyError:
        raise ValueError(f"unknown grid {name!r}; choose from "
                         f"{sorted(GRIDS)}") from None
    return factory(seed=seed)
