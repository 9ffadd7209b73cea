"""libc facades: the interposition point for NVCache (paper §III)."""

from .libc import Libc, NvcacheLibc
from .tenant import TenantLibc

__all__ = ["Libc", "NvcacheLibc", "TenantLibc"]
