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

Representation: one buffer, the *image*, holds what the CPU sees. When a
store dirties a run of clean lines it first saves their persisted bytes
as one *undo record*; a fence persists lines by dropping their undo
bytes, and a crash image is the image with the records put back. Two
*line-state maps* — one byte per cache line — mark the unpersisted
(``dirty``) lines and those a ``pwb`` has queued since the last fence;
the queue is the list of ``[first, stop)`` line ranges the callers hand
in, and two counters keep ``dirty_line_count()`` and the number of
*distinct* queued lines (what ``pfence`` returns and ``psync`` charges)
O(1). Every operation is a constant number of C-level slice / ``count``
/ ``find`` / ``bisect`` calls per range or record, never a step per line
or per unrelated record. The image and both maps are anonymous ``mmap``s:
the kernel materializes their zero pages lazily, so a large log pays only
for the lines it touches. The only NVMM devices are caches' logs; the
DAX comparators (NOVA, Ext4-DAX) are cost models over an
:class:`NvmmTiming`, with no device behind them.
"""

from __future__ import annotations

import mmap
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, Generator, Iterable, Iterator, List, Optional, Tuple

from ..sim import Environment
from ..sim.trace import traced
from ..units import CACHE_LINE_SIZE, GIB, NS


def _flat_buffer(size: int) -> mmap.mmap:
    """Zero-initialized flat buffer with bytearray slice semantics but
    lazy page allocation (untouched regions never consume memory)."""
    return mmap.mmap(-1, size)


def _runs(state: bytes, value: int = 1) -> Iterator[Tuple[int, int]]:
    """``[start, stop)`` pairs of the maximal runs of ``value`` (1 or 0)
    in a line-state slice: two ``find`` calls per run, none per line."""
    start = state.find(value)
    while start >= 0:
        stop = state.find(1 - value, start)
        if stop < 0:
            stop = len(state)
        yield start, stop
        start = state.find(value, stop)


def _stop_line(head: int, record: bytes) -> int:
    """The first line past the undo record at ``head`` (rounding up: a
    device's final line may be short)."""
    return head - (-len(record) // CACHE_LINE_SIZE)


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
    """A single NVMM module (or DAX file): CPU image + undo records."""

    __slots__ = ("env", "size", "timing", "name", "_image", "_undo",
                 "_undo_heads", "_dirty_map", "_dirty_count", "_queued_map",
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
        lines = -(-size // CACHE_LINE_SIZE)
        self._image = _flat_buffer(size)
        if media is not None:
            self._image[:] = media
        self._dirty_map = _flat_buffer(lines)
        self._queued_map = _flat_buffer(lines)
        # Undo records: the persisted bytes of disjoint runs of dirty
        # lines, keyed by each run's first line; together they cover the
        # dirty lines exactly. ``_undo_heads`` is their keys, ascending.
        self._undo: Dict[int, bytes] = {}
        self._undo_heads: List[int] = []
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
        m.counter("stores", unit="ops", help="CPU stores into the image",
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
                help="stored lines not yet persisted",
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
        image = self._image
        first = addr // CACHE_LINE_SIZE
        stop = (end - 1) // CACHE_LINE_SIZE + 1
        dirty = self._dirty_map
        state = dirty[first:stop]
        clean = state.count(0)
        if clean:
            # Before the store overwrites them, save the persisted bytes
            # of each run of clean lines as one undo record.
            undo, heads = self._undo, self._undo_heads
            runs = ((0, stop - first),) if clean == stop - first else _runs(state, 0)
            for run, run_stop in runs:
                head = first + run
                undo[head] = image[head * CACHE_LINE_SIZE:(first + run_stop) * CACHE_LINE_SIZE]
                insort(heads, head)
            dirty[first:stop] = b"\x01" * (stop - first)
            self._dirty_count += clean
        image[addr:end] = data

    def load(self, addr: int, nbytes: int) -> bytes:
        """CPU load: sees the newest (possibly unpersisted) data."""
        end = addr + nbytes
        if addr < 0 or nbytes < 0 or end > self.size:
            raise self._out_of_bounds(addr, nbytes)
        stats = self.stats
        stats.loads += 1
        stats.bytes_loaded += nbytes
        return self._image[addr:end]

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
            undo = self._undo
            # Ranges may overlap; a line persisted by an earlier range is
            # clean by the time a later one looks, so it counts once.
            for first, stop in self._queue:
                hits = self._dirty_map[first:stop].count(1)
                clear = b"\x00" * (stop - first)
                if hits:
                    # A range that is exactly one undo record — every log
                    # fill, commit word and clear — drops it in place.
                    record = undo.get(first)
                    if record is not None and \
                            len(record) == len(clear) * CACHE_LINE_SIZE:
                        del undo[first]
                        heads = self._undo_heads
                        del heads[bisect_left(heads, first)]
                    else:
                        self._split_undo(first, stop)
                    self._dirty_map[first:stop] = clear
                    persisted += hits
                self._queued_map[first:stop] = clear
            self._queue.clear()
            self._queued_count = 0
            self._dirty_count -= persisted
            self.stats.lines_persisted += persisted
            self._undrained_lines += drained
        return drained

    def _split_undo(self, first: int, stop: int) -> None:
        """Persist lines ``[first, stop)``: forget their undo bytes,
        splitting the records that reach outside the range."""
        undo, heads = self._undo, self._undo_heads
        lo = bisect_left(heads, first)
        if lo and _stop_line(heads[lo - 1], undo[heads[lo - 1]]) > first:
            lo -= 1
        hi = bisect_left(heads, stop, lo)
        kept: List[int] = []
        for head in heads[lo:hi]:
            record = undo.pop(head)
            if head < first:
                undo[head] = record[:(first - head) * CACHE_LINE_SIZE]
                kept.append(head)
            if _stop_line(head, record) > stop:
                undo[stop] = record[(stop - head) * CACHE_LINE_SIZE:]
                kept.append(stop)
        heads[lo:hi] = kept

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
        """Indices of stored lines not yet persisted, in address order
        (the universe :meth:`crash_image`'s ``keep_lines`` draws from)."""
        lines: List[int] = []
        for head in self._undo_heads:
            lines.extend(range(head, _stop_line(head, self._undo[head])))
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
        image = bytearray(self._image[:])
        for head, record in self._undo.items():
            start = head * CACHE_LINE_SIZE
            image[start:start + len(record)] = record
        survivors: Iterable[int] = ()
        if keep_lines is not None:
            survivors = sorted(set(self.dirty_lines()).intersection(keep_lines))
        elif rng is not None and eviction_probability > 0.0:
            survivors = [line for line in self.dirty_lines()
                         if rng.random() < eviction_probability]
        for line in survivors:
            start = line * CACHE_LINE_SIZE
            stop = start + CACHE_LINE_SIZE
            image[start:stop] = self._image[start:stop]
        return image

    @classmethod
    def from_image(cls, env: Environment, image: bytearray,
                   name: str = "nvmm0") -> "NvmmDevice":
        """Reconstruct a device after a crash (fresh cache, given media,
        default timing)."""
        return cls(env, len(image), media=image, name=name)

    def persisted_view(self) -> bytes:
        """What the media holds right now if the machine lost power."""
        return bytes(self.crash_image())
