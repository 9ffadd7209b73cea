"""dm-writecache: a device-mapper target putting NVMM in front of an SSD.

This is the paper's closest competitor among large-storage systems
(Table I / Fig 3/4). It is a *block-layer* cache: every write that reaches
the dm device is absorbed by NVMM and drained to the origin device in the
background. Crucially it sits **behind** the kernel's volatile page cache,
so an application only gets synchronous durability by paying the full
O_DIRECT|O_SYNC block path per write — the overhead NVCache avoids by
living in user space in front of the kernel.

Implemented as a :class:`~repro.block.BlockDevice` so the stock
:class:`~repro.fs.ext4.Ext4` runs on top unchanged (the paper's lvm2
setup). It keeps only what differs from one: the inherited block store
is the (persistent) NVMM cache, a dirty set says what the origin still
lacks, and service times are NVMM's — charged to the same
``block.*_service`` segments as any device. The write throttle and the
writeback daemon's idle wait are polls, not modelled steps, and stay
raw timeouts.
"""

from __future__ import annotations

from typing import Generator, Set

from ..block import BlockDevice, BlockTiming
from ..nvmm import NvmmTiming
from ..sim import Environment
from ..units import GIB, US


_NVMM = NvmmTiming()

# Service times for cache hits: bio remap + NVMM media cost.
_DM_TIMING = BlockTiming(
    read_base=3.0 * US,
    write_base=3.4 * US,
    seq_read_base=3.0 * US,
    seq_write_base=3.4 * US,
    read_bandwidth=_NVMM.read_bandwidth,
    write_bandwidth=_NVMM.write_bandwidth,
    flush_latency=_NVMM.flush_base_latency + 1.0 * US,
)


class DmWriteCache(BlockDevice):
    """NVMM write cache in front of an origin block device."""

    def __init__(self, env: Environment, origin: BlockDevice,
                 cache_size: int = 128 * GIB,
                 high_watermark: float = 0.45,
                 low_watermark: float = 0.40,
                 autocommit_blocks: int = 64,
                 name: str = "dm-writecache"):
        super().__init__(env, origin.size, _DM_TIMING, name=name)
        self.origin = origin
        self.cache_capacity_blocks = max(1, cache_size // self.BLOCK)
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.autocommit_blocks = autocommit_blocks
        # The inherited ``_cache`` dict is the NVMM block store (it is
        # persistent here: ``crash`` keeps it and ``_durable`` stays
        # empty); ``_dirty`` names the blocks not yet on the origin.
        self._dirty: Set[int] = set()
        self.writeback_running = False
        self._writeback_proc = env.spawn(self._writeback_daemon(), name=f"{name}.writeback")

    def register_metrics(self, registry) -> None:
        """Block-device metrics plus the dm-writecache cache state
        (dirty blocks, occupancy, writeback activity)."""
        super().register_metrics(registry)
        from ..obs import sanitize
        m = registry.scope(f"block.{sanitize(self.name)}")
        m.gauge("dirty_blocks", unit="blocks",
                help="cached blocks not yet written back to the origin",
                fn=self.dirty_blocks)
        m.gauge("cached_blocks", unit="blocks",
                help="blocks resident in the NVMM cache",
                fn=lambda: len(self._cache))
        m.gauge("occupancy", unit="ratio",
                help="dirty blocks / cache capacity (watermarks at 0.40/0.45)",
                fn=lambda: self.dirty_blocks() / self.cache_capacity_blocks)
        m.gauge("writeback_active", unit="bool",
                help="1 while the background writeback is draining",
                fn=lambda: int(self.writeback_running))

    # -- cache state -----------------------------------------------------------

    def dirty_blocks(self) -> int:
        return len(self._dirty)

    # -- data path ---------------------------------------------------------------

    def write(self, offset: int, data: bytes) -> Generator:
        """Absorb the write into NVMM; throttle if the cache is full."""
        self._check(offset, len(data))
        # Throttle: if every cache block is dirty, wait for writeback room.
        while self.dirty_blocks() >= self.cache_capacity_blocks:
            yield self.env.timeout(100 * US)
        yield self._lock.acquire()
        try:
            delay = self.timing.write_base + len(data) / self.timing.write_bandwidth
            self.stats.writes += 1
            self.stats.bytes_written += len(data)
            self.stats.busy_time += delay
            if self._m_write_latency is not None:
                self._m_write_latency.observe(delay)
            yield self.env.delay(delay, "block", "write_service")
            if data:
                self._write_raw(offset, data)
                self._dirty.update(range(
                    offset // self.BLOCK,
                    (offset + len(data) - 1) // self.BLOCK + 1))
        finally:
            self._lock.release()

    def read(self, offset: int, nbytes: int) -> Generator:
        """Serve from NVMM when cached, otherwise from the origin."""
        self._check(offset, nbytes)
        out = bytearray(nbytes)
        pos = 0
        while pos < nbytes:
            block, in_block = divmod(offset + pos, self.BLOCK)
            chunk = min(nbytes - pos, self.BLOCK - in_block)
            cached = self._cache.get(block)
            if cached is not None:
                delay = self.timing.read_base + chunk / self.timing.read_bandwidth
                if self._m_read_latency is not None:
                    self._m_read_latency.observe(delay)
                yield self.env.delay(delay, "block", "read_service")
                out[pos:pos + chunk] = cached[in_block:in_block + chunk]
            else:
                data = yield from self.origin.read(block * self.BLOCK + in_block, chunk)
                out[pos:pos + chunk] = data
            pos += chunk
        self.stats.reads += 1
        self.stats.bytes_read += nbytes
        return bytes(out)

    def flush(self) -> Generator:
        """Commit dm-writecache metadata in NVMM (fast: a psync, not a
        disk flush). Cached writes are durable in NVMM after this."""
        self.stats.flushes += 1
        if self._m_flush_latency is not None:
            self._m_flush_latency.observe(self.timing.flush_latency)
        yield self.env.delay(self.timing.flush_latency, "block", "flush_service")

    # -- background writeback ------------------------------------------------------

    def _write_back(self, floor: float, autocommit: bool) -> Generator:
        """Write dirty blocks to the origin, lowest first, until at most
        ``floor`` remain, then flush it; with ``autocommit`` also flush
        every ``autocommit_blocks`` writes. ``drain()`` must not: every
        figure's clock starts after one, so its flush count is pinned."""
        written = 0
        while len(self._dirty) > floor:
            for block in sorted(self._dirty):
                data = self._cache[block]
                yield from self.origin.write(block * self.BLOCK, data)
                # A write absorbed meanwhile replaced the cached bytes
                # object: the origin has stale data, the block stays dirty.
                if self._cache[block] is data:
                    self._dirty.discard(block)
                written += 1
                if autocommit and written % self.autocommit_blocks == 0:
                    yield from self.origin.flush()
        yield from self.origin.flush()

    def _writeback_daemon(self) -> Generator:
        capacity = self.cache_capacity_blocks
        while True:
            if len(self._dirty) > self.high_watermark * capacity:
                self.writeback_running = True
                yield from self._write_back(self.low_watermark * capacity,
                                            autocommit=True)
                self.writeback_running = False
            else:
                yield self.env.timeout(0.05)

    def drain(self) -> Generator:
        """Synchronously push every dirty block to the origin (teardown)."""
        return self._write_back(0, autocommit=False)

    def crash(self) -> None:
        """NVMM cache content survives power loss (it is persistent);
        only the origin device's volatile cache is lost."""
        self.origin.crash()
