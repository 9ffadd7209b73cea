"""journal_mode=WAL for MiniSqlite.

The paper benchmarks SQLite in its default rollback-journal mode (two
fsyncs plus a file create/unlink per transaction). SQLite's WAL mode is
the standard mitigation: a commit appends frames to one append-only
``-wal`` file and fsyncs once; the main database is only rewritten at
checkpoints. Implemented here as an alternative pager so the repository
can quantify how much of NVCache's SQLite win survives when the
application itself is smarter about fsync.

Frame format::

    u32 page_number | u32 commit_flag | page bytes

Commit-flagged frames end a transaction; recovery replays whole
transactions only (a torn tail is discarded), exactly like SQLite's WAL.
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, Optional

from ...kernel.errno import ENOENT
from ...kernel.fd_table import O_APPEND, O_CREAT, O_RDONLY, O_RDWR, O_WRONLY
from .pager import PAGE_SIZE, Pager

_FRAME = struct.Struct("<II")


class WalPager(Pager):
    """Pager variant with write-ahead logging instead of a rollback
    journal. Same public interface; MiniSqlite selects it via
    ``journal_mode="wal"``."""

    def __init__(self, libc, path: str, checkpoint_frames: int = 256):
        super().__init__(libc, path)
        self.wal_path = path + "-wal"
        self.checkpoint_frames = checkpoint_frames
        self._wal_fd: Optional[int] = None
        self._wal_index: Dict[int, bytes] = {}  # page -> newest committed image
        self._wal_frames = 0
        self.checkpoints = 0

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def open(cls, libc, path: str, checkpoint_frames: int = 256) -> Generator:
        pager = cls(libc, path, checkpoint_frames)
        pager.fd = yield from libc.open(path, O_CREAT | O_RDWR)
        st = yield from libc.fstat(pager.fd)
        if st.st_size >= PAGE_SIZE:
            header = yield from libc.pread(pager.fd, PAGE_SIZE, 0)
            from .pager import _HEADER, MAGIC
            magic, page_count, root_page, _ = _HEADER.unpack_from(header)
            if magic != MAGIC:
                raise IOError(f"{path}: not a MiniSQL database")
            pager.page_count = page_count
            pager.root_page = root_page
        else:
            yield from pager._write_header_direct()
        yield from pager._recover_wal()
        pager._wal_fd = yield from libc.open(
            pager.wal_path, O_CREAT | O_WRONLY | O_APPEND)
        return pager

    def close(self) -> Generator:
        if self.in_transaction:
            yield from self.rollback()
        yield from self.checkpoint()
        if self._wal_fd is not None:
            yield from self.libc.close(self._wal_fd)
            self._wal_fd = None
        if self.fd is not None:
            yield from self.libc.close(self.fd)
            self.fd = None

    # -- page access ------------------------------------------------------------

    def read_page(self, number: int) -> Generator:
        if number <= 0 or number >= self.page_count:
            raise ValueError(f"page {number} out of range")
        if number in self._dirty:
            return self._dirty[number]
        committed = self._wal_index.get(number)
        if committed is not None:
            return committed
        cached = self._cache.get(number)
        if cached is not None:
            return cached
        data = yield from self.libc.pread(self.fd, PAGE_SIZE, number * PAGE_SIZE)
        data = data.ljust(PAGE_SIZE, b"\x00")
        self._cache[number] = data
        return data

    def write_page(self, number: int, data: bytes) -> Generator:
        if not self.in_transaction:
            raise RuntimeError("write outside a transaction")
        if len(data) != PAGE_SIZE:
            raise ValueError(f"page must be {PAGE_SIZE} bytes")
        self._dirty[number] = bytes(data)
        yield self.libc.env.timeout(0.0)

    # -- transactions ------------------------------------------------------------------

    def begin(self) -> Generator:
        if self.in_transaction:
            raise RuntimeError("nested transaction")
        self._dirty = {}
        self._txn_original_count = self.page_count
        self._txn_original_root = self.root_page
        self.in_transaction = True
        yield self.libc.env.timeout(0.0)

    def commit(self) -> Generator:
        if not self.in_transaction:
            raise RuntimeError("commit outside a transaction")
        from .pager import _HEADER, MAGIC
        numbers = sorted(self._dirty)
        buffer = bytearray()
        for number in numbers:
            buffer += _FRAME.pack(number, 0)
            buffer += self._dirty[number]
        # The header page rides in every commit (it carries page_count
        # and the tree root); its frame is the transaction's commit mark.
        header = _HEADER.pack(MAGIC, self.page_count, self.root_page, 0)
        header = header.ljust(PAGE_SIZE, b"\x00")
        buffer += _FRAME.pack(0, 1) + header
        yield from self.libc.write(self._wal_fd, bytes(buffer))
        yield from self.libc.fsync(self._wal_fd)  # the ONE fsync
        for number in numbers:
            self._wal_index[number] = self._dirty[number]
        self._wal_index[0] = header
        self._wal_frames += len(numbers) + 1
        self._dirty = {}
        self.in_transaction = False
        self.commits += 1
        if self._wal_frames >= self.checkpoint_frames:
            yield from self.checkpoint()

    def rollback(self) -> Generator:
        if not self.in_transaction:
            raise RuntimeError("rollback outside a transaction")
        self._dirty = {}
        self.page_count = self._txn_original_count
        self.root_page = self._txn_original_root
        self.in_transaction = False
        self.rollbacks += 1
        yield self.libc.env.timeout(0.0)

    # -- checkpointing --------------------------------------------------------------------

    def checkpoint(self) -> Generator:
        """Move committed WAL content into the main database, fsync it,
        and reset the WAL (SQLite's TRUNCATE checkpoint)."""
        if not self._wal_index and self._wal_frames == 0:
            yield self.libc.env.timeout(0.0)
            return
        for number in sorted(self._wal_index):
            data = self._wal_index[number]
            yield from self.libc.pwrite(self.fd, data, number * PAGE_SIZE)
            self._cache[number] = data
        yield from self._write_header_direct()
        yield from self.libc.fsync(self.fd)
        self._wal_index = {}
        self._wal_frames = 0
        if self._wal_fd is not None:
            yield from self.libc.ftruncate(self._wal_fd, 0)
        self.checkpoints += 1

    # -- recovery --------------------------------------------------------------------------

    def _recover_wal(self) -> Generator:
        """Rebuild the WAL index from complete transactions in the -wal
        file; a torn tail (no commit frame) is discarded."""
        try:
            fd = yield from self.libc.open(self.wal_path, O_RDONLY)
        except OSError as exc:
            if exc.errno == ENOENT:
                return
            raise
        st = yield from self.libc.fstat(fd)
        raw = yield from self.libc.pread(fd, st.st_size, 0)
        yield from self.libc.close(fd)
        position = 0
        txn: Dict[int, bytes] = {}
        frame_size = _FRAME.size + PAGE_SIZE
        while position + frame_size <= len(raw):
            number, commit_flag = _FRAME.unpack_from(raw, position)
            data = bytes(raw[position + _FRAME.size:position + frame_size])
            txn[number] = data
            if commit_flag:
                self._wal_index.update(txn)
                self._wal_frames += len(txn)
                txn = {}
            position += frame_size
        # Any trailing frames without a commit flag roll back implicitly.
        header = self._wal_index.get(0)
        if header is not None:
            from .pager import _HEADER
            _magic, page_count, root_page, _ = _HEADER.unpack_from(header)
            self.page_count = page_count
            self.root_page = root_page
