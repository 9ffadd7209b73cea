"""libc facades: the interposition point for NVCache (paper §III)."""

from .libc import Libc, NvcacheLibc

__all__ = ["Libc", "NvcacheLibc"]
