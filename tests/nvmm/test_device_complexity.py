"""Host-independent complexity guard for the NVMM persistence tracking.

The device books persistence per *range*: a constant number of C-level
slice / ``count`` / ``find`` / ``bisect`` operations whatever the
range's length or the number of unrelated undo records.
Timing that on a shared host is noise; counting steps is exact. The
profile hook sees every call into a C function or method and the trace
hook every Python call and every executed Python line, so a
reintroduced per-line loop, per-line ``sorted`` key or per-line method
call changes the count with the range length and fails here
deterministically.
"""

import gc
import sys

import pytest

from repro.nvmm import NvmmDevice, device as device_module
from repro.nvmm.sparse import CHUNK_SIZE, SparseBytes
from repro.sim import Environment
from repro.units import CACHE_LINE_SIZE

SIZE = 4 * CHUNK_SIZE


def _steps(fn, calls=None) -> int:
    """Python calls, executed Python lines and C calls while running
    ``fn``; each Python call's ``(file, qualified name)`` is appended to
    ``calls`` when given."""
    count = 0

    def profile(_frame, event, _arg):
        nonlocal count
        if event == "c_call":
            count += 1

    def trace(frame, event, _arg):
        nonlocal count
        if event in ("call", "line"):
            count += 1
            if event == "call" and calls is not None:
                code = frame.f_code
                calls.append((code.co_filename, code.co_qualname))
        return trace

    # A collection inside the region would run other tests' finalizers
    # (generator ``finally`` blocks) under the hooks.
    collecting = gc.isenabled()
    gc.disable()
    previous = sys.gettrace()
    sys.setprofile(profile)
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(previous)
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return count


@pytest.fixture(params=["flat", "sparse"])
def make_device(request, monkeypatch):
    def make() -> NvmmDevice:
        device = NvmmDevice(Environment(), size=SIZE)
        assert isinstance(device._image, SparseBytes) == \
            (request.param == "sparse")
        # An unrelated dirty line, so the device is never all clean.
        device.store(0, b"x")
        return device

    if request.param == "sparse":
        monkeypatch.setattr(device_module, "FLAT_LIMIT", 0)
    return make


def _write_cycle_steps(device: NvmmDevice, addr: int, lines: int) -> int:
    nbytes = lines * CACHE_LINE_SIZE
    data = b"\xab" * nbytes

    def cycle():
        device.store(addr, data)
        assert device.load(addr, nbytes) == data       # all dirty
        device.pwb_range(addr, nbytes)
        device.pwb_range(addr, nbytes)                 # repeated: counts once
        assert device.pfence() == (addr + nbytes - 1) // CACHE_LINE_SIZE \
            - addr // CACHE_LINE_SIZE + 1
        assert device.load(addr, nbytes) == data       # all clean

    steps = _steps(cycle)
    assert device.dirty_line_count() == 1
    return steps


# A chunk-aligned range keeps the 16,384-line (1 MiB) case inside one
# sparse chunk, like every log entry; the unaligned one adds two
# partially-covered edge lines.
@pytest.mark.parametrize("offset", [0, 8])
def test_write_cycle_cost_is_independent_of_range_length(make_device, offset):
    short = _write_cycle_steps(make_device(), CHUNK_SIZE + offset, 2)
    long = _write_cycle_steps(make_device(), CHUNK_SIZE + offset,
                              16_384 - (1 if offset else 0))
    assert short == long


def test_partially_dirty_range_costs_per_run_not_per_line(make_device):
    def steps(lines_per_run: int) -> int:
        device = make_device()
        stride = 2 * lines_per_run * CACHE_LINE_SIZE
        for run in range(3):  # three dirty runs with clean gaps between
            device.store(CHUNK_SIZE + run * stride,
                         b"\xcd" * (lines_per_run * CACHE_LINE_SIZE))

        def cycle():
            device.load(CHUNK_SIZE, 3 * stride)
            device.pwb_range(CHUNK_SIZE, 3 * stride)
            assert device.pfence() == 6 * lines_per_run

        count = _steps(cycle)
        assert device.stats.lines_persisted == 3 * lines_per_run
        return count

    assert steps(1) == steps(1_000)


def test_dirty_line_count_is_constant_time(make_device):
    few, many = make_device(), make_device()
    many.store(CHUNK_SIZE, b"\xef" * (9_999 * CACHE_LINE_SIZE))
    assert (few.dirty_line_count(), many.dirty_line_count()) == (1, 10_000)
    assert _steps(few.dirty_line_count) == _steps(many.dirty_line_count)


@pytest.mark.parametrize("fenced", ["whole_record", "split_record"])
def test_pfence_cost_is_independent_of_unrelated_dirty_runs(make_device,
                                                            fenced):
    def steps(runs: int) -> int:
        device = make_device()
        # One-line dirty runs with clean gaps, half below and half above
        # the range under test: ``runs`` undo records it must not visit.
        for run in range(runs):
            base = CACHE_LINE_SIZE if run % 2 else 2 * CHUNK_SIZE
            device.store(base + run * 2 * CACHE_LINE_SIZE, b"\x01")
        device.store(CHUNK_SIZE, b"\xcd" * (4 * CACHE_LINE_SIZE))
        if fenced == "whole_record":
            fence = (CHUNK_SIZE, 4 * CACHE_LINE_SIZE)
        else:
            fence = (CHUNK_SIZE + CACHE_LINE_SIZE, CACHE_LINE_SIZE)

        def cycle():
            device.pwb_range(*fence)
            device.pfence()

        count = _steps(cycle)
        assert device.dirty_line_count() == 1 + runs + 4 - fence[1] // CACHE_LINE_SIZE
        return count

    assert steps(1) == steps(1_000)
