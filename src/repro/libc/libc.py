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
    """Stock libc: thin syscall wrappers. Every method is a plain
    function handing back the target's own generator, so the facade
    adds no generator frame to any resume of the I/O path.

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
        return self.target.open(path, flags, mode)

    @traced("libc", "close")
    def close(self, fd: int) -> Generator:
        return self.target.close(fd)

    @traced("libc", "read")
    def read(self, fd: int, nbytes: int) -> Generator:
        return self.target.read(fd, nbytes)

    @traced("libc", "write")
    def write(self, fd: int, data: bytes) -> Generator:
        return self.target.write(fd, data)

    @traced("libc", "pread")
    def pread(self, fd: int, nbytes: int, offset: int) -> Generator:
        return self.target.pread(fd, nbytes, offset)

    @traced("libc", "pwrite")
    def pwrite(self, fd: int, data: bytes, offset: int) -> Generator:
        return self.target.pwrite(fd, data, offset)

    def lseek(self, fd: int, offset: int, whence: int = SEEK_SET) -> Generator:
        return self.target.lseek(fd, offset, whence)

    @traced("libc", "fsync")
    def fsync(self, fd: int) -> Generator:
        return self.target.fsync(fd)

    @traced("libc", "fdatasync")
    def fdatasync(self, fd: int) -> Generator:
        return self.target.fdatasync(fd)

    @traced("libc", "sync")
    def sync(self) -> Generator:
        return self.target.sync()

    def stat(self, path: str) -> Generator:
        return self.target.stat(path)

    def fstat(self, fd: int) -> Generator:
        return self.target.fstat(fd)

    def unlink(self, path: str) -> Generator:
        return self.target.unlink(path)

    def rename(self, old: str, new: str) -> Generator:
        return self.target.rename(old, new)

    def mkdir(self, path: str) -> Generator:
        return self.target.mkdir(path)

    def ftruncate(self, fd: int, size: int) -> Generator:
        return self.target.ftruncate(fd, size)

    def flock(self, fd: int, operation: int) -> Generator:
        return self.target.flock(fd, operation)


class NvcacheLibc(Libc):
    """musl with NVCache spliced into the I/O functions (paper §III).

    Defines no I/O method of its own: every cache mode implements the
    whole surface (:class:`~repro.core.nvcache.CacheFacade`), so
    splicing it in is re-pointing ``target``.
    """

    def __init__(self, nvcache):
        super().__init__(nvcache.kernel)
        self.nvcache = nvcache
        self.target = nvcache
