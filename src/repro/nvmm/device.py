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

Representation: the media and the volatile CPU-cache overlay are two
buffers shadowing each other, and two *line-state maps* — one byte per
cache line — say where the overlay is authoritative (``dirty``) and
which lines a ``pwb`` has queued since the last fence (``queued``). The
queue itself is the list of ``[first, stop)`` line ranges the callers
hand in; two counters keep ``dirty_line_count()`` and the number of
*distinct* queued lines O(1) — distinct because that count is what
``pfence`` returns and the next ``psync`` is charged for, so overlapping
or repeated ``pwb``s must count once. Every operation costs a constant
number of C-level slice / ``count`` / ``find`` calls per *range* (when
every line of a fenced range is dirty, one ``media[a:b] =
overlay[a:b]``), never a Python- or set-level step per *line*. All four
buffers speak one slice protocol, so what backs them is decided once,
in the constructor: up to :data:`FLAT_LIMIT` — every NVCache log in the
repo — anonymous ``mmap``s, raw slice assignment with nothing in
between; above it sparse chunked buffers
(:class:`~repro.nvmm.sparse.SparseBytes`), so a "480 GB" module does
not pay a gigantic zero-fill at construction.
"""

from __future__ import annotations

import mmap
import random
from dataclasses import dataclass
from typing import Generator, Iterable, Iterator, List, Optional, Tuple

from ..sim import Environment
from ..sim.trace import traced
from ..units import CACHE_LINE_SIZE, GIB, NS
from .sparse import CHUNK_SIZE, SparseBytes

#: Devices at or below this size back their buffers with flat anonymous
#: mmaps (raw slice assignment on the hot paths, zero pages materialized
#: lazily by the kernel); larger devices use :class:`SparseBytes` so
#: huge mostly-untouched modules stay cheap.
FLAT_LIMIT = 256 << 20


def _flat_buffer(size: int) -> mmap.mmap:
    """Zero-initialized flat buffer with bytearray slice semantics but
    lazy page allocation (untouched regions never consume memory)."""
    return mmap.mmap(-1, size)


def _runs(state: bytes) -> Iterator[Tuple[int, int]]:
    """``[start, stop)`` index pairs of the maximal runs of set bytes in
    a line-state slice: two ``find`` calls per run, none per line."""
    start = state.find(1)
    while start >= 0:
        stop = state.find(0, start)
        if stop < 0:
            stop = len(state)
        yield start, stop
        start = state.find(1, stop)


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

    def flush_cost(self, nbytes: int) -> float:
        """Flushing ``nbytes`` of whole cache lines and draining them."""
        return (self.flush_base_latency
                + (nbytes // CACHE_LINE_SIZE) * self.per_line_flush)


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

    __slots__ = ("env", "size", "timing", "name", "_media",
                 "_overlay", "_dirty_map", "_dirty_count", "_queued_map",
                 "_queued_count", "_queue", "_undrained_lines", "stats",
                 "_m_psync_latency")

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
        # lines set in ``_dirty_map``. Small devices — every NVCache log —
        # keep all four buffers flat; huge modules stay sparse so untouched
        # regions cost nothing (NOVA, Ext4-DAX use them for timing only).
        lines = -(-size // CACHE_LINE_SIZE)
        if size <= FLAT_LIMIT:
            self._media = _flat_buffer(size)
            if media is not None:
                self._media[:] = media
            self._overlay = _flat_buffer(size)
            self._dirty_map = _flat_buffer(lines)
            self._queued_map = _flat_buffer(lines)
        else:
            self._media = SparseBytes(size, initial=media)
            self._overlay = SparseBytes(size)
            self._dirty_map = SparseBytes(lines)
            self._queued_map = SparseBytes(lines)
        self._dirty_count = 0
        # ``[first, stop)`` line ranges enqueued by pwb but not yet
        # fenced, and how many distinct lines they cover.
        self._queue: List[Tuple[int, int]] = []
        self._queued_count = 0
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

    # -- untimed state transitions (the instruction model) ------------------

    def _out_of_bounds(self, addr: int, nbytes: int) -> ValueError:
        return ValueError(f"access [{addr}, {addr + nbytes}) out of bounds "
                          f"for {self.name} of size {self.size}")

    def store(self, addr: int, data: bytes) -> None:
        """CPU store: visible to loads immediately, persistent only after
        pwb+pfence/psync (or a lucky cache eviction)."""
        nbytes = len(data)
        end = addr + nbytes
        if addr < 0 or end > self.size:
            raise self._out_of_bounds(addr, nbytes)
        stats = self.stats
        stats.stores += 1
        stats.bytes_stored += nbytes
        if nbytes == 0:
            return
        overlay = self._overlay
        first = addr // CACHE_LINE_SIZE
        stop = (end - 1) // CACHE_LINE_SIZE + 1
        dirty = self._dirty_map
        state = dirty[first:stop]
        # Only the partially-covered edge lines need their untouched bytes
        # seeded from media; fully-covered interior lines are overwritten.
        if addr % CACHE_LINE_SIZE and not state[0]:
            start = first * CACHE_LINE_SIZE
            overlay[start:start + CACHE_LINE_SIZE] = \
                self._media[start:start + CACHE_LINE_SIZE]
        if end % CACHE_LINE_SIZE and not state[-1]:
            start = (stop - 1) * CACHE_LINE_SIZE
            overlay[start:start + CACHE_LINE_SIZE] = \
                self._media[start:start + CACHE_LINE_SIZE]
        overlay[addr:end] = data
        clean = state.count(0)
        if clean:
            dirty[first:stop] = b"\x01" * (stop - first)
            self._dirty_count += clean

    def load(self, addr: int, nbytes: int) -> bytes:
        """CPU load: sees the newest (possibly unpersisted) data."""
        end = addr + nbytes
        if addr < 0 or nbytes < 0 or end > self.size:
            raise self._out_of_bounds(addr, nbytes)
        stats = self.stats
        stats.loads += 1
        stats.bytes_loaded += nbytes
        if nbytes == 0:
            return b""
        if not self._dirty_count:
            return self._media[addr:end]
        first = addr // CACHE_LINE_SIZE
        state = self._dirty_map[first:(end - 1) // CACHE_LINE_SIZE + 1]
        hits = state.count(1)
        if not hits:
            return self._media[addr:end]
        overlay = self._overlay
        if hits == len(state):
            return overlay[addr:end]
        # Mixed clean/dirty lines: start from media, patch dirty runs in.
        out = bytearray(self._media[addr:end])
        for run, run_stop in _runs(state):
            start = max((first + run) * CACHE_LINE_SIZE, addr)
            stop = min((first + run_stop) * CACHE_LINE_SIZE, end)
            out[start - addr:stop - addr] = overlay[start:stop]
        return bytes(out)

    def pwb(self, addr: int) -> None:
        """Enqueue the cache line containing ``addr`` for write-back."""
        if addr < 0 or addr >= self.size:
            raise self._out_of_bounds(addr, 1)
        self.stats.pwbs += 1
        line = addr // CACHE_LINE_SIZE
        queued = self._queued_map
        if queued[line:line + 1] == b"\x00":
            queued[line:line + 1] = b"\x01"
            self._queued_count += 1
            self._queue.append((line, line + 1))
        recorder = self.env.crash_points
        if recorder is not None:
            recorder.hit("nvmm.pwb", f"{self.name} line {line}")

    def pwb_range(self, addr: int, nbytes: int) -> None:
        """``pwb`` every cache line overlapping ``[addr, addr+nbytes)``; a
        zero-length range still names the line holding ``addr``."""
        end = addr + (nbytes or 1)
        if addr < 0 or nbytes < 0 or end > self.size:
            raise self._out_of_bounds(addr, nbytes)
        first = addr // CACHE_LINE_SIZE
        stop = (end - 1) // CACHE_LINE_SIZE + 1
        self.stats.pwbs += stop - first
        queued = self._queued_map
        fresh = queued[first:stop].count(0)
        if fresh:
            queued[first:stop] = b"\x01" * (stop - first)
            self._queued_count += fresh
            self._queue.append((first, stop))
        recorder = self.env.crash_points
        if recorder is not None:
            recorder.hit("nvmm.pwb", f"{self.name} lines {first}..{stop - 1}")

    def pfence(self) -> int:
        """Ordering fence: persist every queued line. Returns lines drained.

        The fence itself is cheap (it only *orders*); the latency of the
        actual drain is accounted when a ``psync`` waits for it.
        """
        self.stats.pfences += 1
        drained = self._queued_count
        recorder = self.env.crash_points
        if recorder is not None:
            # Pre-persist: the most adversarial instant — everything
            # enqueued but nothing ordered yet.
            recorder.hit("nvmm.pfence", f"{self.name} queued {drained}")
        if drained:
            persisted = 0
            # Ranges may overlap; a line persisted by an earlier range is
            # clean by the time a later one looks, so it counts once.
            for first, stop in self._queue:
                state = self._dirty_map[first:stop]
                hits = state.count(1)
                if hits == stop - first:
                    start, end = first * CACHE_LINE_SIZE, stop * CACHE_LINE_SIZE
                    self._media[start:end] = self._overlay[start:end]
                elif hits:
                    for run, run_stop in _runs(state):
                        start = (first + run) * CACHE_LINE_SIZE
                        end = (first + run_stop) * CACHE_LINE_SIZE
                        self._media[start:end] = self._overlay[start:end]
                clear = b"\x00" * (stop - first)
                if hits:
                    self._dirty_map[first:stop] = clear
                    persisted += hits
                self._queued_map[first:stop] = clear
            self._queue.clear()
            self._queued_count = 0
            self._dirty_count -= persisted
            self.stats.lines_persisted += persisted
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

    def timed_load(self, addr: int, nbytes: int) -> Generator:
        """load() plus media read latency and bandwidth cost."""
        data = self.load(addr, nbytes)
        yield self.env.delay(self.timing.load_cost(nbytes), "nvmm", "load")
        return data

    # -- crash simulation ----------------------------------------------------

    def dirty_line_count(self) -> int:
        return self._dirty_count

    def dirty_lines(self) -> Tuple[int, ...]:
        """Indices of overlay lines not yet persisted, in address order
        (the universe :meth:`crash_image`'s ``keep_lines`` draws from)."""
        lines: List[int] = []
        base = 0
        # A sparse chunk of the map at a time, and only until every dirty
        # line is found: a huge module's map is never materialized whole.
        while len(lines) < self._dirty_count:
            for run, run_stop in _runs(self._dirty_map[base:base + CHUNK_SIZE]):
                lines.extend(range(base + run, base + run_stop))
            base += CHUNK_SIZE
        return tuple(lines)

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
        image = bytearray(self._media[:])
        survivors: Iterable[int] = ()
        if keep_lines is not None:
            survivors = sorted(set(self.dirty_lines()).intersection(keep_lines))
        elif rng is not None and eviction_probability > 0.0:
            survivors = [line for line in self.dirty_lines()
                         if rng.random() < eviction_probability]
        overlay = self._overlay
        for line in survivors:
            start = line * CACHE_LINE_SIZE
            stop = start + CACHE_LINE_SIZE
            image[start:stop] = overlay[start:stop]
        return image

    @classmethod
    def from_image(cls, env: Environment, image: bytearray,
                   timing: Optional[NvmmTiming] = None, name: str = "nvmm0") -> "NvmmDevice":
        """Reconstruct a device after a crash (fresh cache, given media)."""
        return cls(env, len(image), timing=timing, media=bytearray(image), name=name)

    def persisted_view(self) -> bytes:
        """What the media holds right now if the machine lost power."""
        return self._media[:]
