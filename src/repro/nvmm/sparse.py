"""Sparse byte buffer backed by fixed-size chunks.

Simulated NVMM modules above :data:`~repro.nvmm.device.FLAT_LIMIT` are
hundreds of GiB, but workloads touch only a small, localized fraction
(NOVA and Ext4-DAX use the device mostly for its timing/capacity
model). A flat buffer of the device size would pay an enormous
zero-fill — and whole-buffer copies for every crash image — so such
devices use this sparse representation instead: a dict of 1 MiB
chunks, allocated on first write. Absent chunks read as zeros, exactly
like fresh NVMM in the model.

The interface is the slice protocol the flat buffers of small devices
(anonymous ``mmap``) already have — ``buf[a:b]`` returns the bytes,
``buf[a:b] = data`` stores exactly ``b - a`` bytes — so
:class:`~repro.nvmm.device.NvmmDevice` addresses its media, its volatile
overlay and its two line-state maps through one code path whatever
backs them (DESIGN.md §6). As a line-state map (one byte per 64-byte
cache line) a chunk covers 64 MiB of device. The overwhelmingly common
case — a slice that falls inside one chunk — is a single dict lookup
plus one C-level slice; reading an absent chunk never materializes it,
so imaging a mostly-empty module stays cheap.
"""

from __future__ import annotations

from typing import Dict, Optional

CHUNK_SHIFT = 20  # 1 MiB chunks
CHUNK_SIZE = 1 << CHUNK_SHIFT
_CHUNK_MASK = CHUNK_SIZE - 1


class SparseBytes:
    """Zero-initialized, sparsely materialized byte buffer."""

    __slots__ = ("size", "_chunks")

    def __init__(self, size: int, initial: Optional[bytes] = None):
        self.size = size
        self._chunks: Dict[int, bytearray] = {}
        if initial is not None:
            if len(initial) != size:
                raise ValueError(
                    f"initial image of {len(initial)} bytes != size {size}")
            view = memoryview(initial)
            for base in range(0, size, CHUNK_SIZE):
                piece = view[base:base + CHUNK_SIZE]
                # Keep the buffer sparse: all-zero regions of the image
                # stay unmaterialized.
                if piece.nbytes and any(piece):
                    chunk = bytearray(CHUNK_SIZE)
                    chunk[:piece.nbytes] = piece
                    self._chunks[base >> CHUNK_SHIFT] = chunk

    def chunk_count(self) -> int:
        return len(self._chunks)

    def __getitem__(self, key: slice) -> bytes:
        """``buf[a:b]``: the bytes there; absent chunks read as zeros."""
        addr, stop, _ = key.indices(self.size)
        nbytes = max(stop - addr, 0)
        offset = addr & _CHUNK_MASK
        if offset + nbytes <= CHUNK_SIZE:
            chunk = self._chunks.get(addr >> CHUNK_SHIFT)
            if chunk is None:
                return bytes(nbytes)
            return bytes(chunk[offset:offset + nbytes])
        out = bytearray(nbytes)
        pos = 0
        while pos < nbytes:
            offset = (addr + pos) & _CHUNK_MASK
            piece = min(nbytes - pos, CHUNK_SIZE - offset)
            chunk = self._chunks.get((addr + pos) >> CHUNK_SHIFT)
            if chunk is not None:
                out[pos:pos + piece] = chunk[offset:offset + piece]
            pos += piece
        return bytes(out)

    def __setitem__(self, key: slice, data: bytes) -> None:
        """``buf[a:b] = data``: store exactly ``b - a`` bytes (like
        ``mmap``, never resizing), materializing chunks as needed."""
        addr, stop, _ = key.indices(self.size)
        nbytes = len(data)
        if nbytes != max(stop - addr, 0):
            raise ValueError(
                f"slice assignment of {nbytes} bytes to [{addr}, {stop})")
        if not nbytes:
            return
        offset = addr & _CHUNK_MASK
        if offset + nbytes <= CHUNK_SIZE:
            index = addr >> CHUNK_SHIFT
            chunk = self._chunks.get(index)
            if chunk is None:
                chunk = self._chunks[index] = bytearray(CHUNK_SIZE)
            chunk[offset:offset + nbytes] = data
            return
        pos = 0
        while pos < nbytes:
            offset = (addr + pos) & _CHUNK_MASK
            piece = min(nbytes - pos, CHUNK_SIZE - offset)
            index = (addr + pos) >> CHUNK_SHIFT
            chunk = self._chunks.get(index)
            if chunk is None:
                chunk = self._chunks[index] = bytearray(CHUNK_SIZE)
            chunk[offset:offset + piece] = data[pos:pos + piece]
            pos += piece
