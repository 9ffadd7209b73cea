"""Block-device substrate: storage + a per-device service-time model.

Devices store data sparsely (block index -> bytes) so simulating a
"480 GB" disk costs memory proportional to the data actually written.

Durability model: a write lands in the device's volatile write cache and
becomes durable at the next ``flush()`` (write barrier), mirroring how a
real SATA drive acknowledges writes from its DRAM cache. ``fsync`` in the
simulated kernel ends with a device flush, so the "fsync is ~an order of
magnitude slower than a plain write" effect the paper leans on (§III,
cleanup-thread batching) emerges naturally.

Requests are serialized through a device lock (queue depth 1), which is
the behaviour of the paper's `psync`/qd1 FIO configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

from ..sim import Environment, Lock


@dataclass(slots=True)
class BlockStats:
    """Cumulative counters for one device."""

    reads: int = 0
    writes: int = 0
    flushes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_time: float = 0.0
    sequential_writes: int = 0
    random_writes: int = 0


@dataclass(frozen=True)
class BlockTiming:
    """Service-time parameters; subclasses provide calibrated defaults."""

    read_base: float
    write_base: float
    seq_read_base: float
    seq_write_base: float
    read_bandwidth: float  # bytes/second
    write_bandwidth: float
    flush_latency: float


class BlockDevice:
    """A storage device addressable at byte granularity (the simulated
    kernel performs its own page-sized I/O on top).

    A stored block is one immutable ``bytes`` object: a whole aligned
    block is adopted from the writer and handed to the reader by
    reference (the page the kernel wrote *is* the block the device
    holds); only a partial-block access copies."""

    BLOCK = 4096
    _ZERO_BLOCK = bytes(BLOCK)  # what every never-written block reads as

    def __init__(self, env: Environment, size: int, timing: BlockTiming,
                 name: str = "blk0"):
        if size <= 0:
            raise ValueError("device size must be positive")
        self.env = env
        self.size = size
        self.timing = timing
        self.name = name
        self.stats = BlockStats()
        self._durable: Dict[int, bytes] = {}
        self._cache: Dict[int, bytes] = {}  # volatile device write cache
        # Optional repro.faults.BlockFaultInjector (armed via
        # injector.arm(device)); None on the hot path.
        self.fault_injector = None
        self._lock = Lock(env, name=f"{name}.queue")
        self._last_write_end: Optional[int] = None
        self._last_read_end: Optional[int] = None
        self._m_read_latency = None
        self._m_write_latency = None
        self._m_flush_latency = None
        if env.metrics is not None:
            self.register_metrics(env.metrics)

    def register_metrics(self, registry) -> None:
        """Expose per-device counters, queue depth, and per-op latency
        histograms under ``block.<name>.*`` (see docs/OBSERVABILITY.md)."""
        from ..obs import sanitize
        m = registry.scope(f"block.{sanitize(self.name)}")
        stats = self.stats
        m.counter("reads", unit="ops", help="read requests served",
                  fn=lambda: stats.reads)
        m.counter("writes", unit="ops", help="write requests served",
                  fn=lambda: stats.writes)
        m.counter("flushes", unit="ops", help="write barriers served",
                  fn=lambda: stats.flushes)
        m.counter("bytes_read", unit="bytes", fn=lambda: stats.bytes_read)
        m.counter("bytes_written", unit="bytes", fn=lambda: stats.bytes_written)
        m.counter("sequential_writes", unit="ops",
                  help="writes hitting the sequential fast path",
                  fn=lambda: stats.sequential_writes)
        m.counter("random_writes", unit="ops",
                  fn=lambda: stats.random_writes)
        m.gauge("busy_time", unit="s", help="cumulative service time",
                fn=lambda: stats.busy_time)
        m.gauge("queue_depth", unit="requests",
                help="in-flight plus queued requests (qd1 device lock)",
                fn=lambda: int(self._lock.locked) + len(self._lock._waiters))
        self._m_read_latency = m.histogram(
            "read_latency", unit="s", help="per-read service time")
        self._m_write_latency = m.histogram(
            "write_latency", unit="s", help="per-write service time")
        self._m_flush_latency = m.histogram(
            "flush_latency", unit="s", help="per-barrier service time")

    # -- storage helpers ----------------------------------------------------

    def _check(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise ValueError(
                f"I/O [{offset}, {offset + nbytes}) out of bounds on "
                f"{self.name} of size {self.size}"
            )

    def _read_raw(self, offset: int, nbytes: int) -> bytes:
        if nbytes == self.BLOCK and offset % self.BLOCK == 0:
            # One aligned block: hand out the stored object itself.
            block = offset // self.BLOCK
            data = self._cache.get(block)
            if data is None:
                data = self._durable.get(block, self._ZERO_BLOCK)
            return data
        out = bytearray(nbytes)
        pos = 0
        while pos < nbytes:
            block, in_block = divmod(offset + pos, self.BLOCK)
            chunk = min(nbytes - pos, self.BLOCK - in_block)
            data = self._cache.get(block)
            if data is None:
                data = self._durable.get(block)
            if data is not None:
                out[pos:pos + chunk] = data[in_block:in_block + chunk]
            pos += chunk
        return bytes(out)

    def _write_raw(self, offset: int, data: bytes) -> None:
        if len(data) == self.BLOCK and offset % self.BLOCK == 0:
            # One aligned block: adopt the caller's object (``bytes(x)``
            # is ``x`` itself for a bytes object, a copy of anything else).
            self._cache[offset // self.BLOCK] = bytes(data)
            return
        pos = 0
        while pos < len(data):
            block, in_block = divmod(offset + pos, self.BLOCK)
            chunk = min(len(data) - pos, self.BLOCK - in_block)
            existing = self._cache.get(block)
            if existing is None:
                existing = self._durable.get(block, self._ZERO_BLOCK)
            updated = bytearray(existing)
            updated[in_block:in_block + chunk] = data[pos:pos + chunk]
            self._cache[block] = bytes(updated)
            pos += chunk

    # -- service-time model ---------------------------------------------------

    def _write_service_time(self, offset: int, nbytes: int) -> float:
        sequential = self._last_write_end == offset
        base = self.timing.seq_write_base if sequential else self.timing.write_base
        if sequential:
            self.stats.sequential_writes += 1
        else:
            self.stats.random_writes += 1
        return base + nbytes / self.timing.write_bandwidth

    def _read_service_time(self, offset: int, nbytes: int) -> float:
        sequential = self._last_read_end == offset
        base = self.timing.seq_read_base if sequential else self.timing.read_base
        return base + nbytes / self.timing.read_bandwidth

    # -- timed public API ------------------------------------------------------

    def read(self, offset: int, nbytes: int) -> Generator:
        """Timed read; returns the bytes."""
        self._check(offset, nbytes)
        tracer = self.env.tracer
        token = None
        if tracer is not None:
            token = tracer.begin(self.env, "block", "read", device=self.name,
                                 offset=offset, nbytes=nbytes)
        queued = self.env.now
        try:
            yield self._lock.acquire()
            try:
                delay = self._read_service_time(offset, nbytes)
                self._last_read_end = offset + nbytes
                self.stats.reads += 1
                self.stats.bytes_read += nbytes
                self.stats.busy_time += delay
                if tracer is not None:
                    tracer.charge(self.env, "block", "queue_wait",
                                  self.env.now - queued)
                if self._m_read_latency is not None:
                    self._m_read_latency.observe(
                        delay, trace_id=tracer.current_trace_id(self.env)
                        if tracer is not None else None)
                yield self.env.delay(delay, "block", "read_service")
                return self._read_raw(offset, nbytes)
            finally:
                self._lock.release()
        finally:
            if token is not None:
                tracer.end(self.env, token)

    def write(self, offset: int, data: bytes) -> Generator:
        """Timed write into the device cache (volatile until flush)."""
        self._check(offset, len(data))
        tracer = self.env.tracer
        token = None
        if tracer is not None:
            token = tracer.begin(self.env, "block", "write", device=self.name,
                                 offset=offset, nbytes=len(data))
        queued = self.env.now
        try:
            yield self._lock.acquire()
            try:
                delay = self._write_service_time(offset, len(data))
                self._last_write_end = offset + len(data)
                self.stats.writes += 1
                self.stats.bytes_written += len(data)
                self.stats.busy_time += delay
                if tracer is not None:
                    tracer.charge(self.env, "block", "queue_wait",
                                  self.env.now - queued)
                if self._m_write_latency is not None:
                    self._m_write_latency.observe(
                        delay, trace_id=tracer.current_trace_id(self.env)
                        if tracer is not None else None)
                yield self.env.delay(delay, "block", "write_service")
                if self.fault_injector is not None:
                    # May raise KernelError(EIO); a torn write lands a prefix
                    # of the data in the cache before raising.
                    self.fault_injector.on_write(self, offset, data)
                self._write_raw(offset, data)
                recorder = self.env.crash_points
                if recorder is not None:
                    recorder.hit("block.write_completed",
                                 f"{self.name}+{offset}:{len(data)}")
            finally:
                self._lock.release()
        finally:
            if token is not None:
                tracer.end(self.env, token)

    def flush(self) -> Generator:
        """Write barrier: device cache becomes durable."""
        tracer = self.env.tracer
        token = None
        if tracer is not None:
            token = tracer.begin(self.env, "block", "flush", device=self.name)
        queued = self.env.now
        try:
            yield self._lock.acquire()
            try:
                self.stats.flushes += 1
                self.stats.busy_time += self.timing.flush_latency
                if tracer is not None:
                    tracer.charge(self.env, "block", "queue_wait",
                                  self.env.now - queued)
                if self._m_flush_latency is not None:
                    self._m_flush_latency.observe(
                        self.timing.flush_latency,
                        trace_id=tracer.current_trace_id(self.env)
                        if tracer is not None else None)
                yield self.env.delay(self.timing.flush_latency,
                                     "block", "flush_service")
                if self.fault_injector is not None \
                        and self.fault_injector.on_flush(self):
                    # Dropped barrier: the device acknowledges the flush but
                    # keeps the cache volatile (a lying drive).
                    return
                self._durable.update(self._cache)
                self._cache.clear()
                recorder = self.env.crash_points
                if recorder is not None:
                    recorder.hit("block.flush_completed", self.name)
            finally:
                self._lock.release()
        finally:
            if token is not None:
                tracer.end(self.env, token)

    # -- crash simulation --------------------------------------------------------

    def crash(self) -> None:
        """Power loss: the volatile device cache is dropped."""
        self._cache.clear()
        self._last_write_end = None
        self._last_read_end = None

    def reattach(self, env: Environment) -> None:
        """Rebind the device to a fresh environment (reboot after crash);
        durable blocks are kept, queue state reset."""
        self.env = env
        self._lock = Lock(env, name=f"{self.name}.queue")
        self._last_write_end = None
        self._last_read_end = None

    def durable_snapshot(self) -> Dict[int, bytes]:
        """Copy of the durable blocks (for crash-consistency assertions)."""
        return dict(self._durable)

    def written_blocks(self) -> int:
        return len(self._durable) + len(self._cache)
