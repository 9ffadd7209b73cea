"""The syscall layer: the only interface applications (and NVCache's
cleanup thread) use to reach storage — open/read/write/pread/pwrite/
lseek/fsync/stat/close and friends, with Linux semantics for the flags
the paper's evaluation exercises (O_SYNC, O_DIRECT, O_APPEND).

Every call charges syscall entry/exit cost; this is precisely the cost
NVCache's user-space write path avoids and NOVA pays (paper §IV-C).
"""

from __future__ import annotations

from typing import Generator, Optional

from ..sim import Environment
from ..sim.trace import traced
from .costs import CpuCosts, DEFAULT_CPU
from .errno import (
    EBADF,
    EEXIST,
    EINVAL,
    EISDIR,
    ENOENT,
    KernelError,
)
from .fd_table import (
    FdTable,
    LOCK_EX,
    LOCK_SH,
    LOCK_UN,
    O_ACCMODE,
    O_CREAT,
    O_EXCL,
    O_RDONLY,
    O_TRUNC,
    OpenFile,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
)
from .inode import stat_of
from .page_cache import PageCache
from .vfs import Vfs, normalize


class Kernel:
    """A simulated POSIX kernel instance."""

    def __init__(self, env: Environment, cpu: CpuCosts = DEFAULT_CPU,
                 page_cache: Optional[PageCache] = None):
        self.env = env
        self.cpu = cpu
        self.vfs = Vfs()
        self.page_cache = page_cache or PageCache(env, cpu)
        self.fds = FdTable()

    def mount(self, mountpoint: str, filesystem) -> None:
        self.vfs.mount(mountpoint, filesystem)

    # -- open/close -------------------------------------------------------------

    def open(self, path: str, flags: int = O_RDONLY, mode: int = 0o644) -> Generator:
        yield self.env.delay(self.cpu.syscall, "kernel", "syscall")
        filesystem, rel = self.vfs.resolve(path)
        inode = filesystem.lookup(rel)
        if inode is None:
            if not flags & O_CREAT:
                raise KernelError(ENOENT, path)
            inode = filesystem.create(rel)
            inode.mode = (inode.mode & ~0o777) | (mode & 0o777)
        elif flags & O_CREAT and flags & O_EXCL:
            raise KernelError(EEXIST, path)
        if inode.is_dir and (flags & O_ACCMODE) != O_RDONLY:
            raise KernelError(EISDIR, path)
        open_file = OpenFile(inode=inode, filesystem=filesystem,
                             path=normalize(path), flags=flags)
        if flags & O_TRUNC and open_file.writable and inode.is_regular:
            filesystem.truncate(inode, 0)
            self.page_cache.invalidate(filesystem, inode)
        return self.fds.allocate(open_file)

    def close(self, fd: int) -> Generator:
        yield self.env.delay(self.cpu.syscall, "kernel", "syscall")
        self.fds.release(fd)
        return 0

    # -- read/write -------------------------------------------------------------

    @traced("kernel", "read")
    def _do_read(self, open_file: OpenFile, offset: int, nbytes: int) -> Generator:
        filesystem, inode = open_file.filesystem, open_file.inode
        if filesystem.uses_page_cache and not open_file.direct:
            data = yield from self.page_cache.read(filesystem, inode, offset, nbytes)
        else:
            data = yield from filesystem.direct_read(inode, offset, nbytes)
            yield self.env.delay(self.cpu.copy_cost(len(data)), "kernel", "copy")
        return data

    @traced("kernel", "write")
    def _do_write(self, open_file: OpenFile, offset: int, data: bytes) -> Generator:
        filesystem, inode = open_file.filesystem, open_file.inode
        if filesystem.uses_page_cache and not open_file.direct:
            yield from self.page_cache.write(filesystem, inode, offset, data)
        else:
            if open_file.direct and filesystem.uses_page_cache:
                self.page_cache.invalidate(filesystem, inode)
            yield self.env.delay(self.cpu.copy_cost(len(data)), "kernel", "copy")
            yield from filesystem.direct_write(inode, offset, data)
        if open_file.sync:
            yield from self._fsync_inode(open_file)
        return len(data)

    @traced("kernel", "fsync")
    def _fsync_inode(self, open_file: OpenFile) -> Generator:
        filesystem, inode = open_file.filesystem, open_file.inode
        if filesystem.uses_page_cache:
            yield from self.page_cache.fsync(filesystem, inode)
        else:
            yield from filesystem.commit(inode)

    def read(self, fd: int, nbytes: int) -> Generator:
        yield self.env.delay(self.cpu.syscall, "kernel", "syscall")
        open_file = self.fds.get(fd)
        if not open_file.readable:
            raise KernelError(EBADF, f"fd {fd} not open for reading")
        data = yield from self._do_read(open_file, open_file.offset, nbytes)
        open_file.offset += len(data)
        return data

    def write(self, fd: int, data: bytes) -> Generator:
        yield self.env.delay(self.cpu.syscall, "kernel", "syscall")
        open_file = self.fds.get(fd)
        if not open_file.writable:
            raise KernelError(EBADF, f"fd {fd} not open for writing")
        if open_file.append:
            open_file.offset = open_file.inode.size
        written = yield from self._do_write(open_file, open_file.offset, data)
        open_file.offset += written
        return written

    def pread(self, fd: int, nbytes: int, offset: int) -> Generator:
        yield self.env.delay(self.cpu.syscall, "kernel", "syscall")
        open_file = self.fds.get(fd)
        if not open_file.readable:
            raise KernelError(EBADF, f"fd {fd} not open for reading")
        if offset < 0:
            raise KernelError(EINVAL, f"offset {offset}")
        data = yield from self._do_read(open_file, offset, nbytes)
        return data

    def pwrite(self, fd: int, data: bytes, offset: int) -> Generator:
        yield self.env.delay(self.cpu.syscall, "kernel", "syscall")
        open_file = self.fds.get(fd)
        if not open_file.writable:
            raise KernelError(EBADF, f"fd {fd} not open for writing")
        if offset < 0:
            raise KernelError(EINVAL, f"offset {offset}")
        written = yield from self._do_write(open_file, offset, data)
        return written

    # -- metadata ---------------------------------------------------------------

    def lseek(self, fd: int, offset: int, whence: int = SEEK_SET) -> Generator:
        yield self.env.delay(self.cpu.syscall, "kernel", "syscall")
        open_file = self.fds.get(fd)
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = open_file.offset + offset
        elif whence == SEEK_END:
            new = open_file.inode.size + offset
        else:
            raise KernelError(EINVAL, f"whence {whence}")
        if new < 0:
            raise KernelError(EINVAL, f"offset {new}")
        open_file.offset = new
        return new

    def stat(self, path: str) -> Generator:
        yield self.env.delay(self.cpu.syscall, "kernel", "syscall")
        filesystem, rel = self.vfs.resolve(path)
        inode = filesystem.lookup(rel)
        if inode is None:
            raise KernelError(ENOENT, path)
        return stat_of(inode)

    def fstat(self, fd: int) -> Generator:
        yield self.env.delay(self.cpu.syscall, "kernel", "syscall")
        return stat_of(self.fds.get(fd).inode)

    def ftruncate(self, fd: int, size: int) -> Generator:
        yield self.env.delay(self.cpu.syscall, "kernel", "syscall")
        open_file = self.fds.get(fd)
        if not open_file.writable:
            raise KernelError(EBADF, f"fd {fd} not open for writing")
        if size < 0:
            raise KernelError(EINVAL, f"size {size}")
        open_file.filesystem.truncate(open_file.inode, size)
        self.page_cache.truncate(open_file.filesystem, open_file.inode, size)
        return 0

    def unlink(self, path: str) -> Generator:
        yield self.env.delay(self.cpu.syscall, "kernel", "syscall")
        filesystem, rel = self.vfs.resolve(path)
        inode = filesystem.unlink(rel)
        self.page_cache.invalidate(filesystem, inode)
        return 0

    def rename(self, old: str, new: str) -> Generator:
        yield self.env.delay(self.cpu.syscall, "kernel", "syscall")
        old_fs, old_rel = self.vfs.resolve(old)
        new_fs, new_rel = self.vfs.resolve(new)
        if old_fs is not new_fs:
            raise KernelError(EINVAL, "cross-filesystem rename")
        old_fs.rename(old_rel, new_rel)
        return 0

    def mkdir(self, path: str) -> Generator:
        yield self.env.delay(self.cpu.syscall, "kernel", "syscall")
        filesystem, rel = self.vfs.resolve(path)
        filesystem.mkdir(rel)
        return 0

    def listdir(self, path: str) -> Generator:
        yield self.env.delay(self.cpu.syscall, "kernel", "syscall")
        filesystem, rel = self.vfs.resolve(path)
        return filesystem.listdir(rel)

    # -- durability --------------------------------------------------------------

    def fsync(self, fd: int) -> Generator:
        yield self.env.delay(self.cpu.syscall, "kernel", "syscall")
        open_file = self.fds.get(fd)
        yield from self._fsync_inode(open_file)
        return 0

    # Modeled identically to fsync (our journal commit covers both).
    fdatasync = fsync

    @traced("kernel", "sync")
    def sync(self) -> Generator:
        yield self.env.delay(self.cpu.syscall, "kernel", "syscall")
        yield from self.page_cache.writeback_pass()
        for filesystem in self.vfs.filesystems():
            yield from filesystem.sync()
        return 0

    @traced("kernel", "syncfs")
    def syncfs(self, fd: int) -> Generator:
        yield self.env.delay(self.cpu.syscall, "kernel", "syscall")
        open_file = self.fds.get(fd)
        yield from self.page_cache.writeback_pass()
        yield from open_file.filesystem.sync()
        return 0

    # -- advisory locking ----------------------------------------------------------

    def flock(self, fd: int, operation: int) -> Generator:
        """Advisory lock bookkeeping (the simulation runs one kernel per
        stack, so contention across *processes* is not modeled; NVCache
        uses flock/close as flush points, which is what we track)."""
        yield self.env.delay(self.cpu.syscall, "kernel", "syscall")
        open_file = self.fds.get(fd)
        if operation & LOCK_UN:
            open_file.locks.clear()
        elif operation & (LOCK_SH | LOCK_EX):
            open_file.locks.add(operation & (LOCK_SH | LOCK_EX))
        else:
            raise KernelError(EINVAL, f"flock op {operation}")
        return 0

    # -- crash simulation ------------------------------------------------------------

    def crash(self) -> None:
        """Power loss: page cache and fd table vanish."""
        self.page_cache.crash()
        self.fds = FdTable()
