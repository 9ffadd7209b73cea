"""Byte-addressable NVMM device with an explicit CPU-cache persistence model.

The persistence semantics follow the paper's §III instruction model:

- ``store`` writes go into the (volatile) CPU cache; they are *not*
  persistent yet. Loads by the same CPU see them immediately.
- ``pwb(addr)`` (``clwb`` on x86) enqueues the cache line containing
  ``addr`` into the flush queue.
- ``pfence`` (``sfence``) is an ordering point: every line enqueued by a
  preceding ``pwb`` reaches the persistence domain before any store that
  follows the fence. We model this by persisting the queued lines at the
  fence.
- ``psync`` acts as a ``pfence`` and additionally guarantees the drain has
  completed before execution continues; it is the only persistence
  primitive that costs simulated time on the write path.

A *crash* discards the CPU cache. Because a real cache may spontaneously
evict dirty lines at any moment, :meth:`NvmmDevice.crash_image` can
optionally persist a random subset of the unflushed dirty lines — recovery
code must be correct for every such subset, and the property tests exercise
exactly that.

Representation: both the media and the volatile CPU-cache overlay are
flat shadows of each other, with a set of dirty line indices recording
where the overlay is authoritative: ``store``/``load`` become one or two
slice operations instead of a per-cache-line dict walk, and only the
partially-written edge lines of a store need seeding from media.
Devices up to :data:`FLAT_LIMIT` — every NVCache log geometry in the
repo — back both buffers with plain ``bytearray``s, so the hot
store/load/persist paths are raw slice assignments with no buffer
abstraction in between. Larger modules fall back to sparse chunked
buffers (:class:`~repro.nvmm.sparse.SparseBytes`) so a "480 GB" module
does not pay a gigantic zero-fill at construction.
"""

from __future__ import annotations

import mmap
import random
from dataclasses import dataclass
from typing import Generator, Iterable, Optional, Set, Tuple

from ..sim import Environment
from ..sim.trace import traced
from ..units import CACHE_LINE_SIZE, GIB, NS
from .sparse import SparseBytes

#: Devices at or below this size back media and overlay with flat
#: anonymous mmaps (raw slice assignment on the hot paths, zero pages
#: materialized lazily by the kernel); larger devices use
#: :class:`SparseBytes` so huge mostly-untouched modules stay cheap
#: even for whole-buffer operations like ``crash_image``.
FLAT_LIMIT = 256 << 20


def _flat_buffer(size: int) -> mmap.mmap:
    """Zero-initialized flat buffer with bytearray slice semantics but
    lazy page allocation (untouched regions never consume memory)."""
    return mmap.mmap(-1, size)


@dataclass(frozen=True)
class NvmmTiming:
    """Latency/bandwidth model, defaults calibrated to Optane DC PMM.

    Numbers follow the published characterization studies the paper cites
    (Izraelevitz et al. 2019, Yang et al. FAST'20): ~300 ns read latency,
    ~6 GiB/s read and ~2 GiB/s write bandwidth per interleaved set, and
    sub-microsecond flush cost.
    """

    read_latency: float = 300 * NS
    read_bandwidth: float = 6 * GIB  # bytes/second
    write_bandwidth: float = 2 * GIB  # bytes/second
    flush_base_latency: float = 500 * NS  # psync drain floor
    per_line_flush: float = 30 * NS  # extra drain cost per queued line

    def store_cost(self, nbytes: int) -> float:
        return nbytes / self.write_bandwidth

    def load_cost(self, nbytes: int) -> float:
        return self.read_latency + nbytes / self.read_bandwidth


@dataclass(slots=True)
class NvmmStats:
    """Operation counters, reset with the device."""

    stores: int = 0
    loads: int = 0
    bytes_stored: int = 0
    bytes_loaded: int = 0
    pwbs: int = 0
    pfences: int = 0
    psyncs: int = 0
    lines_persisted: int = 0


class NvmmDevice:
    """A single NVMM module (or DAX file): media + volatile cache overlay."""

    __slots__ = ("env", "size", "timing", "name", "_flat", "_media",
                 "_overlay", "_dirty", "_flush_queue", "_undrained_lines",
                 "stats", "_m_psync_latency")

    def __init__(self, env: Environment, size: int, timing: Optional[NvmmTiming] = None,
                 media: Optional[bytearray] = None, name: str = "nvmm0"):
        if size <= 0:
            raise ValueError("NVMM size must be positive")
        if media is not None and len(media) != size:
            raise ValueError(f"media image size {len(media)} != device size {size}")
        self.env = env
        self.size = size
        self.timing = timing or NvmmTiming()
        self.name = name
        # The persistent media (survives crashes) and the volatile cache
        # overlay shadowing it; the overlay is authoritative only for the
        # lines in ``_dirty``. Small devices — every NVCache log — keep
        # both as flat bytearrays so stores and loads are raw slice
        # assignments; huge modules stay sparse so untouched regions cost
        # nothing (NOVA, Ext4-DAX use the device mostly for its
        # timing/capacity model).
        self._flat = size <= FLAT_LIMIT
        if self._flat:
            self._media = _flat_buffer(size)
            if media is not None:
                self._media[:] = media
            self._overlay = _flat_buffer(size)
        else:
            self._media = SparseBytes(size, initial=media)
            self._overlay = SparseBytes(size)
        self._dirty: Set[int] = set()
        # Lines enqueued by pwb but not yet fenced.
        self._flush_queue: Set[int] = set()
        # Lines persisted by pfences whose drain latency has not been
        # charged yet — the next psync pays for them.
        self._undrained_lines = 0
        self.stats = NvmmStats()
        self._m_psync_latency = None
        if env.metrics is not None:
            self.register_metrics(env.metrics)

    def register_metrics(self, registry) -> None:
        """Expose this module's counters under ``nvmm.<name>.*`` (see
        docs/OBSERVABILITY.md)."""
        from ..obs import sanitize
        m = registry.scope(f"nvmm.{sanitize(self.name)}")
        stats = self.stats
        m.counter("stores", unit="ops", help="CPU stores into the overlay",
                  fn=lambda: stats.stores)
        m.counter("loads", unit="ops", help="CPU loads", fn=lambda: stats.loads)
        m.counter("bytes_stored", unit="bytes", help="payload bytes stored",
                  fn=lambda: stats.bytes_stored)
        m.counter("bytes_loaded", unit="bytes", help="payload bytes loaded",
                  fn=lambda: stats.bytes_loaded)
        m.counter("pwbs", unit="ops", help="cache-line write-backs enqueued",
                  fn=lambda: stats.pwbs)
        m.counter("pfences", unit="ops", help="ordering fences",
                  fn=lambda: stats.pfences)
        m.counter("psyncs", unit="ops", help="durability drains",
                  fn=lambda: stats.psyncs)
        m.counter("lines_persisted", unit="lines",
                  help="cache lines reaching the media",
                  fn=lambda: stats.lines_persisted)
        m.gauge("dirty_lines", unit="lines",
                help="overlay lines not yet persisted",
                fn=self.dirty_line_count)
        self._m_psync_latency = m.histogram(
            "psync_latency", unit="s", help="simulated psync drain latency")

    # -- snapshot support ---------------------------------------------------

    def __getstate__(self):
        """Pickle support for quiescent machine snapshots
        (:mod:`repro.faults.snapshot`). Flat devices back their media and
        overlay with anonymous ``mmap`` buffers, which cannot be
        serialized — they travel as plain bytes and are rehydrated into
        fresh buffers on restore. Metrics bindings never travel (the
        restore path reattaches observability from scratch)."""
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        if self._flat:
            state["_media"] = bytes(self._media)
            state["_overlay"] = bytes(self._overlay)
        state["_m_psync_latency"] = None
        return state

    def __setstate__(self, state):
        for slot, value in state.items():
            if state["_flat"] and slot in ("_media", "_overlay"):
                buffer = _flat_buffer(len(value))
                buffer[:] = value
                value = buffer
            setattr(self, slot, value)

    # -- address helpers ---------------------------------------------------

    def _check_range(self, addr: int, nbytes: int) -> None:
        if addr < 0 or nbytes < 0 or addr + nbytes > self.size:
            raise ValueError(
                f"access [{addr}, {addr + nbytes}) out of bounds for "
                f"{self.name} of size {self.size}"
            )

    @staticmethod
    def _line_of(addr: int) -> int:
        return addr // CACHE_LINE_SIZE

    # -- untimed state transitions (the instruction model) ------------------

    def store(self, addr: int, data: bytes) -> None:
        """CPU store: visible to loads immediately, persistent only after
        pwb+pfence/psync (or a lucky cache eviction)."""
        nbytes = len(data)
        if addr < 0 or nbytes < 0 or addr + nbytes > self.size:
            self._check_range(addr, nbytes)
        stats = self.stats
        stats.stores += 1
        stats.bytes_stored += nbytes
        if nbytes == 0:
            return
        overlay = self._overlay
        end = addr + nbytes
        first = addr // CACHE_LINE_SIZE
        last = (end - 1) // CACHE_LINE_SIZE
        dirty = self._dirty
        # Only the partially-covered edge lines need their untouched bytes
        # seeded from media; fully-covered interior lines are overwritten.
        if self._flat:
            media = self._media
            if addr % CACHE_LINE_SIZE and first not in dirty:
                start = first * CACHE_LINE_SIZE
                overlay[start:start + CACHE_LINE_SIZE] = \
                    media[start:start + CACHE_LINE_SIZE]
            if end % CACHE_LINE_SIZE and last not in dirty:
                start = last * CACHE_LINE_SIZE
                overlay[start:start + CACHE_LINE_SIZE] = \
                    media[start:start + CACHE_LINE_SIZE]
            overlay[addr:end] = data
        else:
            if addr % CACHE_LINE_SIZE and first not in dirty:
                overlay.copy_from(self._media, first * CACHE_LINE_SIZE,
                                  CACHE_LINE_SIZE)
            if end % CACHE_LINE_SIZE and last not in dirty:
                overlay.copy_from(self._media, last * CACHE_LINE_SIZE,
                                  CACHE_LINE_SIZE)
            overlay.write(addr, data)
        if first == last:
            dirty.add(first)
        else:
            dirty.update(range(first, last + 1))

    def load(self, addr: int, nbytes: int) -> bytes:
        """CPU load: sees the newest (possibly unpersisted) data."""
        if addr < 0 or nbytes < 0 or addr + nbytes > self.size:
            self._check_range(addr, nbytes)
        stats = self.stats
        stats.loads += 1
        stats.bytes_loaded += nbytes
        if nbytes == 0:
            return b""
        dirty = self._dirty
        end = addr + nbytes
        if self._flat:
            if not dirty:
                return bytes(self._media[addr:end])
            lines = range(addr // CACHE_LINE_SIZE,
                          (end - 1) // CACHE_LINE_SIZE + 1)
            dirty_in_range = dirty.intersection(lines)
            if not dirty_in_range:
                return bytes(self._media[addr:end])
            if len(dirty_in_range) == len(lines):
                return bytes(self._overlay[addr:end])
            out = bytearray(self._media[addr:end])
            overlay = self._overlay
            for line in dirty_in_range:
                start = max(line * CACHE_LINE_SIZE, addr)
                stop = min((line + 1) * CACHE_LINE_SIZE, end)
                out[start - addr:stop - addr] = overlay[start:stop]
            return bytes(out)
        if not dirty:
            return self._media.read(addr, nbytes)
        lines = range(addr // CACHE_LINE_SIZE, (end - 1) // CACHE_LINE_SIZE + 1)
        dirty_in_range = dirty.intersection(lines)
        if not dirty_in_range:
            return self._media.read(addr, nbytes)
        if len(dirty_in_range) == len(lines):
            return self._overlay.read(addr, nbytes)
        # Mixed clean/dirty lines: start from media, patch dirty lines in.
        out = bytearray(self._media.read(addr, nbytes))
        overlay = self._overlay
        for line in dirty_in_range:
            start = max(line * CACHE_LINE_SIZE, addr)
            stop = min((line + 1) * CACHE_LINE_SIZE, end)
            out[start - addr:stop - addr] = overlay.read(start, stop - start)
        return bytes(out)

    def pwb(self, addr: int) -> None:
        """Enqueue the cache line containing ``addr`` for write-back."""
        self._check_range(addr, 1)
        self.stats.pwbs += 1
        self._flush_queue.add(addr // CACHE_LINE_SIZE)
        recorder = self.env.crash_points
        if recorder is not None:
            recorder.hit("nvmm.pwb", f"{self.name} line {addr // CACHE_LINE_SIZE}")

    def pwb_range(self, addr: int, nbytes: int) -> None:
        """``pwb`` every cache line overlapping ``[addr, addr+nbytes)``."""
        self._check_range(addr, nbytes)
        first = addr // CACHE_LINE_SIZE
        last = (addr + max(nbytes, 1) - 1) // CACHE_LINE_SIZE
        self.stats.pwbs += last - first + 1
        self._flush_queue.update(range(first, last + 1))
        recorder = self.env.crash_points
        if recorder is not None:
            recorder.hit("nvmm.pwb", f"{self.name} lines {first}..{last}")

    def _persist_lines(self, lines: Set[int]) -> None:
        """Copy dirty ``lines`` from the overlay into the media, coalescing
        consecutive lines into single range copies."""
        to_persist = sorted(lines)
        media = self._media
        overlay = self._overlay
        flat = self._flat
        run_start = to_persist[0]
        previous = run_start
        for line in to_persist[1:]:
            if line != previous + 1:
                start = run_start * CACHE_LINE_SIZE
                stop = (previous + 1) * CACHE_LINE_SIZE
                if flat:
                    media[start:stop] = overlay[start:stop]
                else:
                    media.copy_from(overlay, start, stop - start)
                run_start = line
            previous = line
        start = run_start * CACHE_LINE_SIZE
        stop = (previous + 1) * CACHE_LINE_SIZE
        if flat:
            media[start:stop] = overlay[start:stop]
        else:
            media.copy_from(overlay, start, stop - start)
        self._dirty.difference_update(lines)
        self.stats.lines_persisted += len(to_persist)

    def pfence(self) -> int:
        """Ordering fence: persist every queued line. Returns lines drained.

        The fence itself is cheap (it only *orders*); the latency of the
        actual drain is accounted when a ``psync`` waits for it.
        """
        self.stats.pfences += 1
        recorder = self.env.crash_points
        if recorder is not None:
            # Pre-persist: the most adversarial instant — everything
            # enqueued but nothing ordered yet.
            recorder.hit("nvmm.pfence", f"{self.name} queued {len(self._flush_queue)}")
        queue = self._flush_queue
        drained = len(queue)
        if drained:
            persistable = queue & self._dirty
            if persistable:
                self._persist_lines(persistable)
            queue.clear()
            self._undrained_lines += drained
        return drained

    # -- timed operations (generators that charge simulated time) ----------

    @traced("nvmm", "psync")
    def psync(self) -> Generator:
        """pfence + wait until every line flushed since the last psync has
        reached the persistence domain (timed)."""
        self.stats.psyncs += 1
        self.pfence()
        recorder = self.env.crash_points
        if recorder is not None:
            # Post-fence, pre-drain: queued lines are persistent, the
            # caller has not been charged for the drain yet.
            recorder.hit("nvmm.psync", self.name)
        delay = (self.timing.flush_base_latency
                 + self._undrained_lines * self.timing.per_line_flush)
        self._undrained_lines = 0
        if self._m_psync_latency is not None:
            tracer = self.env.tracer
            self._m_psync_latency.observe(
                delay, trace_id=tracer.current_trace_id(self.env)
                if tracer is not None else None)
        yield self.env.delay(delay, "nvmm", "fence")

    def timed_store(self, addr: int, data: bytes) -> Generator:
        """store() plus the bandwidth cost of moving the bytes."""
        self.store(addr, data)
        yield self.env.delay(self.timing.store_cost(len(data)), "nvmm", "store")

    def timed_load(self, addr: int, nbytes: int) -> Generator:
        """load() plus media read latency and bandwidth cost."""
        data = self.load(addr, nbytes)
        yield self.env.delay(self.timing.load_cost(nbytes), "nvmm", "load")
        return data

    # -- crash simulation ----------------------------------------------------

    def dirty_line_count(self) -> int:
        return len(self._dirty)

    def dirty_lines(self) -> Tuple[int, ...]:
        """Indices of overlay lines not yet persisted, in address order
        (the universe :meth:`crash_image`'s ``keep_lines`` draws from)."""
        return tuple(sorted(self._dirty))

    def crash_image(self, rng: Optional[random.Random] = None,
                    eviction_probability: float = 0.0,
                    keep_lines: Optional[Iterable[int]] = None) -> bytearray:
        """Return the media contents as seen after a power failure.

        Unflushed dirty lines are lost — except that, with probability
        ``eviction_probability`` per line, the cache is assumed to have
        spontaneously evicted the line before the crash (so it survives).
        Passing ``rng`` with a non-zero probability produces adversarial
        images for recovery testing. Lines are considered in ascending
        address order, so a seeded ``rng`` reproduces the same image.

        Alternatively, ``keep_lines`` names the exact set of lines the
        cache is assumed to have evicted before the crash: those (and
        only those, intersected with the dirty set) survive. Used by the
        crash explorer (:mod:`repro.faults`) to enumerate deterministic
        drop subsets; mutually exclusive with ``rng``.
        """
        if keep_lines is not None and rng is not None:
            raise ValueError("pass either rng or keep_lines, not both")
        image = (bytearray(self._media) if self._flat
                 else self._media.to_bytearray())
        survivors: Iterable[int] = ()
        if keep_lines is not None:
            survivors = sorted(self._dirty.intersection(keep_lines))
        elif rng is not None and eviction_probability > 0.0 and self._dirty:
            survivors = [line for line in sorted(self._dirty)
                         if rng.random() < eviction_probability]
        overlay = self._overlay
        for line in survivors:
            start = line * CACHE_LINE_SIZE
            stop = start + CACHE_LINE_SIZE
            image[start:stop] = (overlay[start:stop] if self._flat
                                 else overlay.read(start, CACHE_LINE_SIZE))
        return image

    @classmethod
    def from_image(cls, env: Environment, image: bytearray,
                   timing: Optional[NvmmTiming] = None, name: str = "nvmm0") -> "NvmmDevice":
        """Reconstruct a device after a crash (fresh cache, given media)."""
        return cls(env, len(image), timing=timing, media=bytearray(image), name=name)

    def persisted_view(self) -> bytes:
        """What the media holds right now if the machine lost power."""
        if self._flat:
            return bytes(self._media)
        return bytes(self._media.to_bytearray())
