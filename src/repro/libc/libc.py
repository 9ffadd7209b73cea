"""The libc facade handed to legacy applications.

In the paper, NVCache patches musl so that the I/O functions of libc go
through the cache instead of the kernel. In the simulation an application
receives a ``Libc`` object and calls POSIX functions on it. There is one
implementation of that surface (paper Table III): every method of
:class:`Libc` forwards to ``self.target`` — the simulated kernel for
stock musl, a cache (any ``CACHE_MODES`` mode) for :class:`NvcacheLibc`,
which is the "replace the libc shared object" deployment step.

Applications written against this interface run unmodified on either,
which is exactly the paper's legacy-compatibility claim.
"""

from __future__ import annotations

from typing import Generator

from ..kernel import Kernel
from ..kernel.fd_table import SEEK_SET
from ..sim.trace import traced


class Libc:
    """Stock libc: thin syscall wrappers.

    The I/O entry points are ``traced``: when the environment carries a
    tracer, each call opens the *root span* of a request's causal tree
    (``libc.pwrite``, ``libc.fsync``, ...) — this is where end-to-end
    latency attribution starts.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.env = kernel.env
        self.target = kernel  # what every call below forwards to

    # -- unbuffered I/O ----------------------------------------------------

    @traced("libc", "open")
    def open(self, path: str, flags: int = 0, mode: int = 0o644) -> Generator:
        fd = yield from self.target.open(path, flags, mode)
        return fd

    @traced("libc", "close")
    def close(self, fd: int) -> Generator:
        result = yield from self.target.close(fd)
        return result

    @traced("libc", "read")
    def read(self, fd: int, nbytes: int) -> Generator:
        data = yield from self.target.read(fd, nbytes)
        return data

    @traced("libc", "write")
    def write(self, fd: int, data: bytes) -> Generator:
        written = yield from self.target.write(fd, data)
        return written

    @traced("libc", "pread")
    def pread(self, fd: int, nbytes: int, offset: int) -> Generator:
        data = yield from self.target.pread(fd, nbytes, offset)
        return data

    @traced("libc", "pwrite")
    def pwrite(self, fd: int, data: bytes, offset: int) -> Generator:
        written = yield from self.target.pwrite(fd, data, offset)
        return written

    def lseek(self, fd: int, offset: int, whence: int = SEEK_SET) -> Generator:
        position = yield from self.target.lseek(fd, offset, whence)
        return position

    @traced("libc", "fsync")
    def fsync(self, fd: int) -> Generator:
        result = yield from self.target.fsync(fd)
        return result

    @traced("libc", "fdatasync")
    def fdatasync(self, fd: int) -> Generator:
        result = yield from self.target.fdatasync(fd)
        return result

    @traced("libc", "sync")
    def sync(self) -> Generator:
        result = yield from self.target.sync()
        return result

    def stat(self, path: str) -> Generator:
        st = yield from self.target.stat(path)
        return st

    def fstat(self, fd: int) -> Generator:
        st = yield from self.target.fstat(fd)
        return st

    def unlink(self, path: str) -> Generator:
        result = yield from self.target.unlink(path)
        return result

    def rename(self, old: str, new: str) -> Generator:
        result = yield from self.target.rename(old, new)
        return result

    def mkdir(self, path: str) -> Generator:
        result = yield from self.target.mkdir(path)
        return result

    def ftruncate(self, fd: int, size: int) -> Generator:
        result = yield from self.target.ftruncate(fd, size)
        return result

    def flock(self, fd: int, operation: int) -> Generator:
        result = yield from self.target.flock(fd, operation)
        return result


class NvcacheLibc(Libc):
    """musl with NVCache spliced into the I/O functions (paper §III).

    Defines no I/O method of its own: every cache mode implements the
    whole surface (:class:`~repro.core.nvcache.CacheFacade`), so
    splicing it in is re-pointing ``target``.

    The stdio family (fopen/fread/fwrite in :mod:`repro.libc.stdio`) is
    redirected to the *unbuffered* versions automatically because it is
    built on this class's read/write — matching Table III's "uses
    unbuffered versions" row, with NVCache's own read cache playing the
    role of the stdio buffer.
    """

    def __init__(self, nvcache):
        super().__init__(nvcache.kernel)
        self.nvcache = nvcache
        self.target = nvcache
