"""The evaluated storage stacks (paper Tables I & IV) and their builder.

Each stack is a complete simulated machine: devices, kernel, filesystems,
optionally an NVCache instance, and the libc facade the workload uses.
Scaling: the paper's sizes (20 GiB working sets, 64 GiB logs, 128 GiB
caches) divided by ``Scale.factor`` (default 256) — every saturation
effect depends on size *ratios*, which scaling preserves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Generator, Optional

from ..block import BlockTiming, SsdDevice
from ..core import CacheFacade, NvcacheConfig, cache_mode_row
from ..fs import DmWriteCache, Ext4, Ext4Dax, Nova, Tmpfs
from ..kernel import Kernel
from ..libc import Libc, NvcacheLibc
from ..nvmm import NvmmDevice
from ..obs import MetricsRegistry
from ..sim import Environment, Tracer
from ..units import GIB, KIB

SYSTEM_NAMES = (
    "nvcache+ssd",
    "dm-writecache+ssd",
    "ext4-dax",
    "nova",
    "ssd",
    "tmpfs",
    "nvcache+nova",
)

#: Table I — qualitative properties ('++' best, '+' good, '-' lacking).
PROPERTY_MATRIX = {
    "ext4-dax": {
        "large_storage": "-", "sync_durability": "+",
        "durable_linearizability": "+", "legacy_fs": "+ (Ext4)",
        "stock_kernel": "+", "legacy_kernel_api": "+",
    },
    "nova": {
        "large_storage": "-", "sync_durability": "++",
        "durable_linearizability": "+", "legacy_fs": "-",
        "stock_kernel": "-", "legacy_kernel_api": "+",
    },
    "strata": {
        "large_storage": "+", "sync_durability": "++",
        "durable_linearizability": "+", "legacy_fs": "-",
        "stock_kernel": "-", "legacy_kernel_api": "-",
    },
    "splitfs": {
        "large_storage": "-", "sync_durability": "++",
        "durable_linearizability": "+", "legacy_fs": "+ (Ext4)",
        "stock_kernel": "-", "legacy_kernel_api": "-",
    },
    "dm-writecache": {
        "large_storage": "+", "sync_durability": "-",
        "durable_linearizability": "-", "legacy_fs": "+ (Any)",
        "stock_kernel": "+", "legacy_kernel_api": "+",
    },
    "nvcache": {
        "large_storage": "+", "sync_durability": "+",
        "durable_linearizability": "+", "legacy_fs": "+ (Any)",
        "stock_kernel": "+", "legacy_kernel_api": "+",
    },
}

#: Table IV — runtime guarantees of the evaluated stacks.
TABLE_IV = {
    "nvcache+ssd": {"write_cache": "NVCACHE", "storage": "SSD", "fs": "Ext4",
                    "sync_durability": "by default",
                    "durable_linearizability": "by default"},
    "dm-writecache+ssd": {"write_cache": "kernel page cache", "storage": "SSD",
                          "fs": "Ext4", "sync_durability": "O_DIRECT|O_SYNC",
                          "durable_linearizability": "no"},
    "ext4-dax": {"write_cache": "kernel page cache", "storage": "NVMM",
                 "fs": "Ext4", "sync_durability": "O_DIRECT|O_SYNC",
                 "durable_linearizability": "no"},
    "nova": {"write_cache": "none", "storage": "NVMM", "fs": "NOVA",
             "sync_durability": "O_DIRECT|O_SYNC",
             "durable_linearizability": "by default"},
    "ssd": {"write_cache": "kernel page cache", "storage": "SSD", "fs": "Ext4",
            "sync_durability": "O_DIRECT|O_SYNC",
            "durable_linearizability": "no"},
    "tmpfs": {"write_cache": "kernel page cache", "storage": "DDR4",
              "fs": "none", "sync_durability": "no",
              "durable_linearizability": "no"},
    "nvcache+nova": {"write_cache": "NVCACHE", "storage": "NVMM", "fs": "NOVA",
                     "sync_durability": "by default",
                     "durable_linearizability": "by default"},
}


@dataclass(frozen=True)
class Scale:
    """Divides the paper's sizes down to simulation sizes."""

    factor: int = 256

    def of(self, paper_bytes: int) -> int:
        return max(64 * KIB, paper_bytes // self.factor)

    @property
    def nvcache_log_bytes(self) -> int:
        return self.of(64 * GIB)  # paper: 16 M entries of 4 KiB

    @property
    def nvmm_module_bytes(self) -> int:
        return self.of(256 * GIB)  # capacity of the DAX filesystems

    @property
    def dm_cache_bytes(self) -> int:
        return self.of(128 * GIB)

    @property
    def read_cache_pages(self) -> int:
        return max(64, self.of(1 * GIB) // (4 * KIB))  # paper: 250 k pages


DEFAULT_SCALE = Scale()


def nvcache_config(scale: Scale = DEFAULT_SCALE,
                   log_bytes: Optional[int] = None,
                   batch_min: int = 1_000,
                   batch_max: int = 10_000,
                   read_cache_pages: Optional[int] = None) -> NvcacheConfig:
    """The paper's §IV-A configuration, scaled."""
    log_bytes = log_bytes if log_bytes is not None else scale.nvcache_log_bytes
    return NvcacheConfig(
        entry_data_size=4 * KIB,
        log_entries=max(8, log_bytes // (4 * KIB)),
        read_cache_pages=(read_cache_pages if read_cache_pages is not None
                          else scale.read_cache_pages),
        batch_min=batch_min,
        batch_max=batch_max,
    )


@dataclass
class StorageStack:
    """A built stack, ready to run a workload against ``libc``."""

    name: str
    env: Environment
    kernel: Kernel
    libc: Libc
    #: The cache instance when the stack has one: the class its mode's
    #: ``CACHE_MODES`` row names, always a
    #: :class:`~repro.core.CacheFacade` (``cleanup``, ``shutdown`` …).
    nvcache: Optional[CacheFacade] = None
    devices: Dict[str, object] = field(default_factory=dict)
    #: Populated when built with ``metrics=True`` (see repro.obs); every
    #: layer of the stack self-registers its counters/gauges/histograms.
    metrics: Optional[MetricsRegistry] = None
    #: Populated when built with ``tracing=True``: the request tracer
    #: attached to ``env.tracer`` (spans, segments, exemplars).
    tracer: Optional[Tracer] = None

    def settle(self) -> Generator:
        """Quiesce after a layout phase: drain NVCache / sync the kernel."""
        if self.nvcache is not None:
            yield self.nvcache.cleanup.request_drain()
        else:
            yield from self.kernel.sync()
        dm = self.devices.get("dm")
        if dm is not None:
            yield from dm.drain()

    def teardown(self) -> Generator:
        """Flush everything and stop background threads."""
        if self.nvcache is not None:
            yield from self.nvcache.shutdown()
        else:
            yield from self.kernel.sync()


def build_stack(name: str, scale: Scale = DEFAULT_SCALE,
                config: Optional[NvcacheConfig] = None,
                cache_mode: str = "logging",
                policy: str = "",
                ssd_size: int = 8 * GIB,
                ssd_timing: Optional[BlockTiming] = None,
                metrics: bool = False,
                tracing: bool = False,
                trace_sample_rate: float = 1.0,
                trace_seed: int = 0,
                trace_capacity: int = 200_000) -> StorageStack:
    """Construct one of the seven evaluated stacks.

    For the nvcache stacks, ``cache_mode`` selects the cache design
    point (a ``repro.core.CACHE_MODES`` name: logging — the paper's
    log + DRAM read cache, paging — the NVMM page-table cache,
    nvlog-lite — the log without a read cache) and ``policy`` the
    eviction/promotion policy (docs/POLICIES.md). Both default to the
    values already in ``config`` when one is supplied; a non-default
    argument wins.

    ``ssd_timing`` replaces the calibrated SATA service-time model of
    the SSD-backed stacks — the capacity explorer's "SSD drain rate"
    axis (docs/CAPACITY.md) sweeps it; ``None`` keeps the paper's
    S4600 calibration.

    With ``metrics=True`` a :class:`~repro.obs.MetricsRegistry` is
    attached to the environment before any component is built, so every
    layer (devices, page cache, filesystems, NVCache) self-registers its
    metrics; the registry is returned on ``StorageStack.metrics``.

    With ``tracing=True`` a :class:`~repro.sim.Tracer` is attached to the
    environment (returned on ``StorageStack.tracer``): every request
    records a causal span tree with critical-path segments, head-sampled
    at ``trace_sample_rate`` using ``trace_seed``. Tracing never changes
    simulated results (pinned by ``tests/obs/test_purity.py``).
    """
    if name not in SYSTEM_NAMES:
        raise ValueError(f"unknown system {name!r}; choose from {SYSTEM_NAMES}")
    env = Environment()
    registry = None
    if metrics:
        registry = MetricsRegistry()
        env.metrics = registry
    tracer = None
    if tracing:
        tracer = Tracer(capacity=trace_capacity,
                        sample_rate=trace_sample_rate, seed=trace_seed)
        env.tracer = tracer
        if registry is not None:
            tracer.register_metrics(registry)
    kernel = Kernel(env)
    devices: Dict[str, object] = {}

    # The backing filesystem: Ext4 on the SSD (behind dm-writecache or
    # not), an NVMM-resident filesystem, or tmpfs.
    cached = name.startswith("nvcache")
    backend = name.rpartition("+")[2]
    if backend == "ssd":
        ssd = devices["ssd"] = SsdDevice(
            env, size=ssd_size, **({"timing": ssd_timing} if ssd_timing else {}))
        if name.startswith("dm-writecache"):
            ssd = devices["dm"] = DmWriteCache(
                env, ssd, cache_size=scale.dm_cache_bytes)
        filesystem = Ext4(env, ssd)
    elif backend == "tmpfs":
        filesystem = Tmpfs(env)
    else:
        # An NVMM-resident filesystem; under NVCache the log takes pmem0.
        nvmm = NvmmDevice(env, size=scale.nvmm_module_bytes,
                          name="pmem1" if cached else "pmem0")
        devices["nvmm_fs" if cached else "nvmm"] = nvmm
        filesystem = (Nova if backend == "nova" else Ext4Dax)(env, nvmm)
    kernel.mount("/", filesystem)

    nvcache = None
    if cached:
        cache_config = config or nvcache_config(scale)
        overrides = {}
        if cache_mode != "logging":
            overrides["cache_mode"] = cache_mode
        if policy:
            overrides["policy"] = policy
        if overrides:
            cache_config = replace(cache_config, **overrides)
        cache_cls, required_size, _recover = cache_mode_row(
            cache_config.cache_mode)
        log_nvmm = devices["log_nvmm"] = NvmmDevice(
            env, size=required_size(cache_config), name="pmem0")
        nvcache = cache_cls(env, kernel, log_nvmm, cache_config)
    libc = NvcacheLibc(nvcache) if cached else Libc(kernel)
    return StorageStack(name, env, kernel, libc, nvcache=nvcache,
                        devices=devices, metrics=registry, tracer=tracer)
