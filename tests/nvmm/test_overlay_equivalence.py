"""Equivalence of the range-granular NvmmDevice with a per-line reference.

The device keeps one image of what the CPU sees, undo records holding
the persisted bytes of its unpersisted lines, two line-state maps and a
queue of ``pwb`` ranges. This pits it against the
straightforward model it replaced — a dict of per-cache-line buffers
and a set of queued lines — over randomized operation sequences, and
demands *byte-identical* behaviour: every load, every fence's drained
count (distinct lines, however the ``pwb``s overlapped), every crash
image (randomized eviction consumes the rng in ascending line-address
order; ``keep_lines`` is intersected with the dirty lines), the dirty
line enumeration, and every NvmmStats counter — for every backing the
constructor can choose.
"""

import itertools
import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvmm import NvmmDevice, device as device_module, sparse
from repro.nvmm.device import NvmmStats
from repro.sim import Environment
from repro.units import CACHE_LINE_SIZE

SIZE = 64 * CACHE_LINE_SIZE


class PerLineReference:
    """The pre-optimization model: a volatile bytearray per dirty line."""

    def __init__(self, size: int):
        self.size = size
        self.media = bytearray(size)
        self.lines = {}  # line index -> bytearray(CACHE_LINE_SIZE)
        self.queue = set()
        self.undrained = 0
        self.stats = NvmmStats()

    def _line_view(self, line: int) -> bytearray:
        view = self.lines.get(line)
        if view is None:
            start = line * CACHE_LINE_SIZE
            view = bytearray(self.media[start:start + CACHE_LINE_SIZE])
            self.lines[line] = view
        return view

    def store(self, addr: int, data: bytes) -> None:
        self.stats.stores += 1
        self.stats.bytes_stored += len(data)
        for i, byte in enumerate(data):
            line, offset = divmod(addr + i, CACHE_LINE_SIZE)
            self._line_view(line)[offset] = byte

    def load(self, addr: int, nbytes: int) -> bytes:
        self.stats.loads += 1
        self.stats.bytes_loaded += nbytes
        out = bytearray(nbytes)
        for i in range(nbytes):
            line, offset = divmod(addr + i, CACHE_LINE_SIZE)
            view = self.lines.get(line)
            out[i] = view[offset] if view is not None else self.media[addr + i]
        return bytes(out)

    def pwb(self, addr: int) -> None:
        self.stats.pwbs += 1
        self.queue.add(addr // CACHE_LINE_SIZE)

    def pwb_range(self, addr: int, nbytes: int) -> None:
        first = addr // CACHE_LINE_SIZE
        last = (addr + max(nbytes, 1) - 1) // CACHE_LINE_SIZE
        self.stats.pwbs += last - first + 1
        self.queue.update(range(first, last + 1))

    def pfence(self) -> int:
        self.stats.pfences += 1
        drained = len(self.queue)
        if drained:
            persistable = self.queue & self.lines.keys()
            for line in persistable:
                start = line * CACHE_LINE_SIZE
                self.media[start:start + CACHE_LINE_SIZE] = self.lines.pop(line)
            self.stats.lines_persisted += len(persistable)
            self.queue.clear()
            self.undrained += drained
        return drained

    def psync(self) -> None:
        self.stats.psyncs += 1
        self.pfence()
        self.undrained = 0

    def crash_image(self, rng=None, eviction_probability=0.0,
                    keep_lines=None) -> bytearray:
        image = bytearray(self.media)
        survivors = []
        if keep_lines is not None:
            survivors = [line for line in self.lines if line in keep_lines]
        elif rng is not None and eviction_probability > 0.0 and self.lines:
            survivors = [line for line in sorted(self.lines)
                         if rng.random() < eviction_probability]
        for line in survivors:
            start = line * CACHE_LINE_SIZE
            image[start:start + CACHE_LINE_SIZE] = self.lines[line]
        return image


# One op = (kind, addr, length). Addresses/lengths are drawn so stores
# hit aligned, unaligned, sub-line, and multi-line shapes, and so that
# pwb_ranges overlap and repeat.
operations = st.lists(
    st.tuples(
        st.sampled_from(["store", "load", "pwb", "pwb_range", "pwb_range",
                         "pfence", "psync"]),
        st.integers(min_value=0, max_value=SIZE - 1),
        st.integers(min_value=0, max_value=3 * CACHE_LINE_SIZE),
    ),
    min_size=1,
    max_size=60,
)

def _build(sparse_backed: bool, image: bytes) -> NvmmDevice:
    with pytest.MonkeyPatch.context() as patch:
        if sparse_backed:
            patch.setattr(device_module, "FLAT_LIMIT", SIZE - 1)
        device = NvmmDevice.from_image(Environment(), image)
    assert isinstance(device._image, sparse.SparseBytes) == sparse_backed
    return device


def _apply(ops, data_seed, sparse_backed):
    payload_rng = random.Random(data_seed)
    # A recovered device over non-zero media: undo records must hold the
    # persisted bytes, not zeros.
    image = payload_rng.randbytes(SIZE)
    device = _build(sparse_backed, image)
    reference = PerLineReference(SIZE)
    reference.media[:] = image

    for kind, addr, length in ops:
        length = min(length, SIZE - addr)
        if kind == "store":
            data = bytes(payload_rng.randrange(256) for _ in range(length))
            device.store(addr, data)
            reference.store(addr, data)
        elif kind == "load":
            assert device.load(addr, length) == reference.load(addr, length)
        elif kind == "pwb":
            device.pwb(addr)
            reference.pwb(addr)
        elif kind == "pwb_range":
            device.pwb_range(addr, length)
            reference.pwb_range(addr, length)
        elif kind == "pfence":
            assert device.pfence() == reference.pfence()
        else:
            assert kind == "psync"
            device.env.run_process(device.psync())
            reference.psync()
        assert device.dirty_line_count() == len(reference.lines)
    return device, reference


def _check_equivalence(sparse_backed, ops, data_seed, crash_seed, keep):
    device, reference = _apply(ops, data_seed, sparse_backed)

    assert asdict(device.stats) == asdict(reference.stats)
    assert device._undrained_lines == reference.undrained
    assert device.dirty_line_count() == len(reference.lines)
    assert device.dirty_lines() == tuple(sorted(reference.lines))

    # Whole-device read-back and persisted state.
    assert device.load(0, SIZE) == reference.load(0, SIZE)
    assert device.persisted_view() == bytes(reference.media)

    # Crash images: the certain cases and the randomized-eviction case,
    # which must consume the rng identically (ascending line order).
    assert device.crash_image() == reference.crash_image()
    assert device.crash_image(random.Random(crash_seed), 1.0) == \
        reference.crash_image(random.Random(crash_seed), 1.0)
    assert device.crash_image(random.Random(crash_seed), 0.5) == \
        reference.crash_image(random.Random(crash_seed), 0.5)
    # keep_lines: any iterable, duplicates and out-of-range indices
    # included, intersected with the dirty lines.
    assert device.crash_image(keep_lines=keep) == \
        reference.crash_image(keep_lines=keep)
    assert device.crash_image(keep_lines=iter(keep)) == \
        reference.crash_image(keep_lines=keep)

    # The fence after the sequence drains what is still queued, once.
    assert device.pfence() == reference.pfence()
    assert device.persisted_view() == bytes(reference.media)
    assert asdict(device.stats) == asdict(reference.stats)


examples = dict(
    ops=operations, data_seed=st.integers(0, 2**16),
    crash_seed=st.integers(0, 2**16),
    keep=st.lists(st.integers(-2, SIZE // CACHE_LINE_SIZE + 2), max_size=12))


@settings(max_examples=60, deadline=None)
@given(**examples)
def test_flat_overlay_matches_per_line_model(ops, data_seed, crash_seed, keep):
    _check_equivalence(False, ops, data_seed, crash_seed, keep)


# The stock 1 MiB chunk holds the whole device; 32-byte chunks make
# every line, most stores and both line-state maps straddle chunks.
@pytest.mark.parametrize("chunk_shift", [sparse.CHUNK_SHIFT, 5])
@settings(max_examples=60, deadline=None)
@given(**examples)
def test_sparse_backing_matches_per_line_model(chunk_shift, ops, data_seed,
                                               crash_seed, keep):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sparse, "CHUNK_SHIFT", chunk_shift)
        patch.setattr(sparse, "CHUNK_SIZE", 1 << chunk_shift)
        patch.setattr(sparse, "_CHUNK_MASK", (1 << chunk_shift) - 1)
        _check_equivalence(True, ops, data_seed, crash_seed, keep)


# -- targeted undo-record shapes ---------------------------------------------

L = CACHE_LINE_SIZE
backings = pytest.mark.parametrize("sparse_backed", [False, True],
                                   ids=["flat", "sparse"])

#: name -> (ops, undo records left): shapes the random sequences reach
#: only by luck.
TARGETED = {
    # The last store covers clean and dirty lines alike: it saves one
    # record per clean run (lines 2, 4-5 and 7-8) and none for 3 and 6.
    "store_over_clean_and_dirty": ([
        ("store", 3 * L + 5, 2), ("store", 6 * L, L),
        ("store", 2 * L + 7, 6 * L)], 5),
    # Fencing line 5 splits the record of lines 2-9; re-dirtying it saves
    # a record of its own, and a store over lines 4-5 saves none.
    # Fencing lines 4-6 then drops that record and trims both halves.
    "redirty_after_partial_fence": ([
        ("store", 2 * L, 8 * L), ("pwb", 5 * L, 0), ("pfence", 0, 0),
        ("store", 5 * L + 3, 10), ("store", 4 * L + 60, 8),
        ("pwb_range", 4 * L, 3 * L), ("pfence", 0, 0)], 2),
    # A fence of exactly one record, and one reaching past both ends of
    # another.
    "fence_whole_records": ([
        ("store", 10 * L, 2 * L), ("store", 20 * L + 1, 3 * L),
        ("pwb_range", 10 * L, 2 * L), ("pfence", 0, 0),
        ("pwb_range", 19 * L, 6 * L), ("pfence", 0, 0)], 0),
}


@backings
@pytest.mark.parametrize("name", sorted(TARGETED))
def test_targeted_undo_shapes_match_per_line_model(sparse_backed, name):
    ops, records = TARGETED[name]
    device, _reference = _apply(ops, 7, sparse_backed)
    assert len(device._undo) == records
    _check_equivalence(sparse_backed, ops, 7, 11, [3, 5, 8, 21])


@backings
def test_every_subset_of_a_split_record_crashes_like_the_model(sparse_backed):
    # Lines 1-6 are one record until fencing line 3 splits it in two.
    ops = [("store", L + 9, 6 * L - 9), ("pwb", 3 * L, 0), ("pfence", 0, 0)]
    device, reference = _apply(ops, 3, sparse_backed)
    assert sorted(device._undo) == [1, 4]
    dirty = device.dirty_lines()
    assert dirty == (1, 2, 4, 5, 6)
    for size in range(len(dirty) + 1):
        for keep in itertools.combinations(dirty, size):
            assert device.crash_image(keep_lines=keep) == \
                reference.crash_image(keep_lines=keep)
