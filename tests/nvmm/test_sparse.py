"""The slice protocol of SparseBytes — what lets NvmmDevice address a
sparse buffer exactly like an anonymous mmap or a bytearray."""

import mmap

import pytest

from repro.nvmm.sparse import CHUNK_SIZE, SparseBytes


def test_fresh_buffer_reads_zeros_without_materializing():
    buf = SparseBytes(4 * CHUNK_SIZE)
    assert buf[10:20] == bytes(10)
    assert buf[CHUNK_SIZE - 8:CHUNK_SIZE + 8] == bytes(16)
    assert buf[:] == bytes(4 * CHUNK_SIZE)
    assert buf.chunk_count() == 0


def test_in_chunk_slice_store_and_load():
    buf = SparseBytes(4 * CHUNK_SIZE)
    buf[CHUNK_SIZE + 5:CHUNK_SIZE + 10] = b"hello"
    assert buf[CHUNK_SIZE + 5:CHUNK_SIZE + 10] == b"hello"
    assert buf[CHUNK_SIZE + 3:CHUNK_SIZE + 12] == b"\0\0hello\0\0"
    assert isinstance(buf[CHUNK_SIZE + 5:CHUNK_SIZE + 10], bytes)
    assert buf.chunk_count() == 1
    # Absent neighbours still read as zeros and stay absent.
    assert buf[0:CHUNK_SIZE] == bytes(CHUNK_SIZE)
    assert buf.chunk_count() == 1


def test_chunk_straddling_slice_store_and_load():
    buf = SparseBytes(4 * CHUNK_SIZE)
    data = bytes(range(256)) * 16
    start = 2 * CHUNK_SIZE - 100
    buf[start:start + len(data)] = data
    assert buf.chunk_count() == 2
    assert buf[start:start + len(data)] == data
    assert buf[start - 1:start + len(data) + 1] == b"\0" + data + b"\0"
    # A read spanning a materialized and an absent chunk.
    assert buf[3 * CHUNK_SIZE - 4:3 * CHUNK_SIZE + 4] == bytes(8)
    assert buf.chunk_count() == 2
    assert buf[:][start:start + len(data)] == data


def test_slices_clamp_and_assign_exact_sizes_like_mmap():
    size = CHUNK_SIZE + 100  # last chunk partial
    buf, flat = SparseBytes(size), mmap.mmap(-1, size)
    for target in (buf, flat):
        target[size - 4:size] = b"tail"
        assert target[size - 4:size + 64] == b"tail"
        assert target[size:size + 8] == b""
        with pytest.raises((ValueError, IndexError)):
            target[0:4] = b"toolong"
        with pytest.raises((ValueError, IndexError)):
            target[size - 2:size + 2] = b"past"
    buf[7:7] = b""
    assert buf.chunk_count() == 1


def test_initial_image_keeps_zero_regions_absent():
    image = bytearray(3 * CHUNK_SIZE)
    image[CHUNK_SIZE + 1] = 7
    buf = SparseBytes(len(image), initial=image)
    assert buf.chunk_count() == 1
    assert buf[:] == bytes(image)
    with pytest.raises(ValueError):
        SparseBytes(10, initial=b"short")
