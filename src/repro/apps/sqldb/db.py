"""MiniSQLite: the embedded transactional store (SQLite stand-in).

A single key/value "table" backed by a journaled pager + B+tree. In
autocommit mode (the default, matching the paper's db_bench-for-SQLite
port in synchronous mode) every mutation is its own transaction: journal
file creation, journal fsync, database write, database fsync, journal
unlink. Explicit ``begin()``/``commit()`` batches mutations into one
transaction, as SQLite's BEGIN/COMMIT does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from .btree import BTree
from .pager import Pager


@dataclass
class SqlStats:
    inserts: int = 0
    selects: int = 0
    deletes: int = 0
    transactions: int = 0


class MiniSqlite:
    """Public API: open/insert/select/delete/scan with transactions."""

    def __init__(self, libc, path: str):
        self.libc = libc
        self.path = path
        self.pager: Optional[Pager] = None
        self.tree: Optional[BTree] = None
        self.stats = SqlStats()
        self._explicit_txn = False

    @classmethod
    def open(cls, libc, path: str) -> Generator:
        db = cls(libc, path)
        db.pager = yield from Pager.open(libc, path)
        db.tree = BTree(db.pager)
        return db

    def close(self) -> Generator:
        if self._explicit_txn:
            yield from self.commit()
        yield from self.pager.close()

    # -- transactions ------------------------------------------------------

    def begin(self) -> Generator:
        if self._explicit_txn:
            raise RuntimeError("transaction already open")
        yield from self.pager.begin()
        self._explicit_txn = True

    def commit(self) -> Generator:
        if not self._explicit_txn:
            raise RuntimeError("no open transaction")
        yield from self.pager.commit()
        self._explicit_txn = False
        self.stats.transactions += 1

    def rollback(self) -> Generator:
        if not self._explicit_txn:
            raise RuntimeError("no open transaction")
        yield from self.pager.rollback()
        self._explicit_txn = False

    def _autocommit(self, operation) -> Generator:
        """Run one mutating operation, wrapping it in a transaction if
        none is open (SQLite's autocommit)."""
        if self._explicit_txn:
            result = yield from operation()
            return result
        yield from self.pager.begin()
        try:
            result = yield from operation()
        except BaseException:
            yield from self.pager.rollback()
            raise
        yield from self.pager.commit()
        self.stats.transactions += 1
        return result

    # -- data operations ---------------------------------------------------------

    def insert(self, key: bytes, value: bytes) -> Generator:
        self.stats.inserts += 1
        result = yield from self._autocommit(
            lambda: self.tree.insert(key, value))
        return result

    def select(self, key: bytes) -> Generator:
        self.stats.selects += 1
        value = yield from self.tree.get(key)
        return value

    def delete(self, key: bytes) -> Generator:
        self.stats.deletes += 1
        result = yield from self._autocommit(lambda: self.tree.delete(key))
        return result

    def scan(self, start: bytes, count: int) -> Generator:
        rows = yield from self.tree.scan(start, count)
        return rows
