"""MiniSqlite: journaled B-tree store (SQLite stand-in)."""

from .btree import BTree
from .db import MiniSqlite, SqlStats
from .pager import PAGE_SIZE, Pager

__all__ = ["MiniSqlite", "SqlStats", "BTree", "Pager", "PAGE_SIZE"]
