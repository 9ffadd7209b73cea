"""Tenant-scoped libc: the multi-tenancy seam at the facade layer.

A :class:`TenantLibc` wraps any :class:`~repro.libc.libc.Libc`
(typically an ``NvcacheLibc`` over the shared cache) and gives one
logical tenant its own view of the stack:

- **namespace isolation** — every path is rewritten under
  ``/tenants/<tenant_id>``, so tenants cannot open, rename into, or
  unlink each other's files, and per-tenant files cluster in the log's
  namespace-op stream for recovery;
- **context propagation** — every call binds ``(tenant_id, io_class)``
  on the environment's :class:`~repro.core.qos.QosManager` for its
  duration, so admission control, quota accounting, per-tenant tallies
  and root-span tags all attribute correctly without threading tenant
  arguments through the kernel, filesystem, or device layers.

Binds are depth-counted per simulated process (the traffic engine may
already hold a bind around a whole operation when a driver built on
this class issues nested calls), and always unwound on exit — including
exceptions — so a failing syscall cannot leak its tenant context into
the next request scheduled on the same worker.

With no QoS manager attached the wrapper degrades to pure path
prefixing, which is how the seeding-contract tests isolate driver
streams from policy effects.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..kernel.fd_table import SEEK_SET
from .libc import Libc


class TenantLibc:
    """One tenant's handle on a shared libc facade."""

    def __init__(self, inner: Libc, tenant_id: str,
                 io_class: str = "standard"):
        if "/" in tenant_id or not tenant_id:
            raise ValueError(f"invalid tenant id {tenant_id!r}")
        self.inner = inner
        self.env = inner.env
        self.kernel = inner.kernel
        self.tenant_id = tenant_id
        self.io_class = io_class
        self.root = f"/tenants/{tenant_id}"

    # -- namespace ---------------------------------------------------------

    def path(self, path: str) -> str:
        """Map a tenant-relative path into the tenant's namespace."""
        if not path.startswith("/"):
            path = "/" + path
        return self.root + path

    def setup(self) -> Generator:
        """Create the tenant's namespace root (``/tenants`` is shared and
        may already exist)."""
        from ..kernel.errno import EEXIST, KernelError
        for directory in ("/tenants", self.root):
            try:
                yield from self.inner.mkdir(directory)
            except KernelError as error:
                if error.errno != EEXIST:
                    raise

    # -- context binding ---------------------------------------------------

    def _bind(self) -> Optional[object]:
        qos = self.env.qos
        if qos is not None and qos.has_tenant(self.tenant_id):
            qos.bind(self.tenant_id, self.io_class)
            return qos
        return None

    def _call(self, op) -> Generator:
        """Run one inner-libc generator under this tenant's QoS context."""
        qos = self._bind()
        try:
            result = yield from op
        finally:
            if qos is not None:
                qos.unbind()
        return result

    # -- the POSIX surface (paper Table III + helpers) ---------------------

    def open(self, path: str, flags: int = 0, mode: int = 0o644) -> Generator:
        return self._call(self.inner.open(self.path(path), flags, mode))

    def close(self, fd: int) -> Generator:
        return self._call(self.inner.close(fd))

    def read(self, fd: int, nbytes: int) -> Generator:
        return self._call(self.inner.read(fd, nbytes))

    def write(self, fd: int, data: bytes) -> Generator:
        return self._call(self.inner.write(fd, data))

    def pread(self, fd: int, nbytes: int, offset: int) -> Generator:
        return self._call(self.inner.pread(fd, nbytes, offset))

    def pwrite(self, fd: int, data: bytes, offset: int) -> Generator:
        return self._call(self.inner.pwrite(fd, data, offset))

    def lseek(self, fd: int, offset: int, whence: int = SEEK_SET) -> Generator:
        return self._call(self.inner.lseek(fd, offset, whence))

    def fsync(self, fd: int) -> Generator:
        return self._call(self.inner.fsync(fd))

    def fdatasync(self, fd: int) -> Generator:
        return self._call(self.inner.fdatasync(fd))

    def sync(self) -> Generator:
        return self._call(self.inner.sync())

    def stat(self, path: str) -> Generator:
        return self._call(self.inner.stat(self.path(path)))

    def fstat(self, fd: int) -> Generator:
        return self._call(self.inner.fstat(fd))

    def unlink(self, path: str) -> Generator:
        return self._call(self.inner.unlink(self.path(path)))

    def rename(self, old: str, new: str) -> Generator:
        return self._call(self.inner.rename(self.path(old), self.path(new)))

    def mkdir(self, path: str) -> Generator:
        return self._call(self.inner.mkdir(self.path(path)))

    def ftruncate(self, fd: int, size: int) -> Generator:
        return self._call(self.inner.ftruncate(fd, size))

    def flock(self, fd: int, operation: int) -> Generator:
        return self._call(self.inner.flock(fd, operation))
