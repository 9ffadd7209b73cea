"""The NVCache facade: the intercepted I/O functions (paper Table III).

This module stands in for the patched musl libc: applications call
``open``/``read``/``write``/``pread``/``pwrite``/``lseek``/``fsync``/
``stat``/``close`` on a cache object instead of on the kernel, and get:

- synchronous durability — a write is durable in NVMM when the call
  returns, with **no syscall on the write path**;
- durable linearizability — the commit word is psync'd before the page
  locks are released, so a racing reader can only observe durable data;
- fsync as a no-op — the write path already made every write durable;
- NVCache-maintained file sizes and cursors — the kernel's are stale
  while writes are in flight.

:class:`CacheFacade` is the one implementation of everything on that
surface that does not depend on *how* a mode persists data;
:class:`Nvcache` is the paper's mode (NVMM log + DRAM read cache +
cleanup thread) on top of it.
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from ..kernel.errno import EBADF, EINVAL, ENAMETOOLONG, ENOENT, KernelError
from ..kernel.fd_table import (
    LOCK_EX,
    LOCK_SH,
    LOCK_UN,
    O_ACCMODE,
    O_APPEND,
    O_CREAT,
    O_DIRECT,
    O_RDONLY,
    O_TRUNC,
    O_WRONLY,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
)
from ..kernel.inode import Stat
from ..nvmm import NvmmDevice
from ..sim import Environment
from .cleanup import CleanupThread
from .config import (
    DEFAULT_CONFIG,
    READ_HIT_OVERHEAD,
    READ_MISS_OVERHEAD,
    WRITE_OP_OVERHEAD,
    NvcacheConfig,
)
from .files import FileTables, NvOpenFile
from .log import OP_CREATE, OP_RENAME, OP_TRUNCATE, OP_UNLINK, NvmmLog
from .read_cache import PageDescriptor, ReadCache
from .stats import NvcacheStats


_DENIED_ACCESS = {"writing": O_RDONLY, "reading": O_WRONLY}


class CacheFacade:
    """The intercepted-libc surface every cache mode shares: fd/handle
    tables, cursors and cache-maintained sizes, the already-durable
    ``fsync`` family, deferred close with its back-pressure valve, the
    ``flock`` coherence point, the metrics all modes report.

    A mode (a subclass named by a ``CACHE_MODES`` row, see
    :mod:`repro.core.config`) supplies what depends on its NVMM layout:
    ``open``, ``pwrite``, ``pread``, ``ftruncate``, ``unlink``,
    ``rename``, ``_finalize_fd``, ``_drop_clean``, ``register_metrics``,
    ``self.stats`` (a :class:`~repro.core.stats.CacheStats`) and
    ``self.cleanup`` (a :class:`~repro.core.cleanup.DrainThread`, which
    owns the drain waiters ``drain``, ``shutdown`` and ``flock`` park
    on). Both layouts keep their paths in one
    :class:`~repro.nvmm.layout.PathTable`.
    """

    def __init__(self, env: Environment, kernel, nvmm: NvmmDevice,
                 config: NvcacheConfig, name: str, required: int, layout: str):
        if nvmm.size < required:
            raise ValueError(
                f"NVMM device of {nvmm.size} bytes too small for {layout} "
                f"geometry needing {required} bytes")
        self.env = env
        self.kernel = kernel
        self.nvmm = nvmm
        self.config = config
        self.name = name
        self.tables = FileTables()
        self._m_write_latency = None
        self._m_read_latency = None

    def _start(self, start_cleanup: bool) -> None:
        """Last step of a mode's ``__init__``, once ``self.cleanup`` exists."""
        self.cleanup.finalize_fd = self._finalize_fd
        if self.env.metrics is not None:
            self.register_metrics(self.env.metrics)
        if start_cleanup:
            self.cleanup.start()

    def _register_shared_metrics(self, m, hits: str) -> None:
        """The metrics every mode reports under its own scope ``m``;
        ``hits`` names the mode's hit/miss counters (read/page)."""
        stats = self.stats
        m.counter("writes", unit="ops", help="intercepted write/pwrite calls",
                  fn=lambda: stats.writes)
        m.counter("reads", unit="ops", help="intercepted read/pread calls",
                  fn=lambda: stats.reads)
        m.counter("bytes_written", unit="bytes", fn=lambda: stats.bytes_written)
        m.counter("bytes_read", unit="bytes", fn=lambda: stats.bytes_read)
        m.counter("fsyncs_ignored", unit="ops",
                  help="fsync/fdatasync calls satisfied for free",
                  fn=lambda: stats.fsyncs_ignored)
        m.gauge("hit_ratio", unit="ratio",
                help=f"{hits}_hits / ({hits}_hits + {hits}_misses)",
                fn=stats.hit_rate)
        self._m_write_latency = m.histogram(
            "write_latency", unit="s",
            help="app-visible pwrite latency (durable at return)")
        self._m_read_latency = m.histogram(
            "read_latency", unit="s", help="app-visible pread latency")

    # -- helpers ---------------------------------------------------------------

    def _handle(self, fd: int, access: str = "", offset: int = 0,
                nbytes: int = 0) -> NvOpenFile:
        """The open-file record of a managed fd. ``pwrite``/``pread``
        pass the access they need ("writing"/"reading") and their
        offset/length: all their argument checks, in one frame per op."""
        handle = self.tables.get(fd)
        if handle is None:
            raise KernelError(EBADF, f"fd {fd} not managed by NVCache")
        if access and (handle.flags & O_ACCMODE) == _DENIED_ACCESS[access]:
            raise KernelError(EBADF, f"fd {fd} not open for {access}")
        if offset < 0 or nbytes < 0:
            raise KernelError(EINVAL, f"offset {offset} nbytes {nbytes}")
        return handle

    def _check_path(self, path: str) -> None:
        """``open``'s first step: a path the NVMM path table cannot hold
        (``path_max`` bytes, NUL included) fails before the kernel
        creates anything or a table registers it."""
        nbytes = len(path.encode("utf-8"))
        if nbytes >= self.config.path_max:
            raise KernelError(ENAMETOOLONG, f"path of {nbytes} bytes does "
                              f"not fit path_max {self.config.path_max}")

    def _observe_latency(self, histogram, began: float) -> None:
        """Record one app-visible latency with the current trace as its
        exemplar. Callers guard on the histogram being registered, which
        keeps this frame off the detached hot path."""
        tracer = self.env.tracer
        histogram.observe(
            self.env.now - began,
            trace_id=tracer.current_trace_id(self.env)
            if tracer is not None else None)

    def _account_read(self, nbytes: int, began: float) -> None:
        """Epilogue of every ``pread`` variant: byte tallies and the
        app-visible latency."""
        self.stats.bytes_read += nbytes
        if self._m_read_latency is not None:
            self._observe_latency(self._m_read_latency, began)

    def drain(self) -> Generator:
        """Wait until everything acknowledged so far has reached the
        backend (log entries retired / dirty pages written back)."""
        yield self.cleanup.request_drain()

    def shutdown(self) -> Generator:
        """Drain, then stop the background thread (clean unmount)."""
        yield self.cleanup.request_drain()
        self.cleanup.stop()

    def close(self, fd: int) -> Generator:
        """Application close. Never blocks on the disk: if pending work
        (log entries / dirty pages) still references this fd, the
        *kernel* close is deferred until the drain thread retires it
        (which also expedites propagation — the paper's
        close-as-coherence-point, made asynchronous). The fd and any
        NVMM state naming it stay reserved meanwhile, so recovery can
        always resolve what is pending."""
        self._handle(fd)
        self.tables.unregister(fd)
        if self.tables.pending_by_fd.get(fd, 0) == 0:
            yield from self._finalize_fd(fd)
        else:
            self.tables.deferred_close.add(fd)
            # Backpressure safety valve: an application that churns
            # through descriptors faster than the disk drains would
            # exhaust the NVMM path table; block this close until the
            # drain thread reduces the backlog (sustained saturation
            # only — the table holds fd_max bindings). The thread fires
            # the waiter the moment a batch shrinks the backlog, so no
            # wakeups are burnt on polling it.
            threshold = self.config.fd_max * 3 // 4
            if len(self.tables.deferred_close) > threshold:
                yield self.cleanup.request_close_headroom(threshold)
            yield self.env.timeout(0.0)
        return 0

    # -- cursor I/O (on top of the mode's pwrite/pread) -------------------------

    def write(self, fd: int, data: bytes) -> Generator:
        handle = self._handle(fd)
        if handle.flags & O_APPEND:
            handle.cursor = handle.file.size
        written = yield from self.pwrite(fd, data, handle.cursor)
        handle.cursor += written
        return written

    def read(self, fd: int, nbytes: int) -> Generator:
        handle = self._handle(fd)
        data = yield from self.pread(fd, nbytes, handle.cursor)
        handle.cursor += len(data)
        return data

    # -- metadata (served from the cache's fresh view) -------------------------

    def lseek(self, fd: int, offset: int, whence: int = SEEK_SET) -> Generator:
        handle = self._handle(fd)
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = handle.cursor + offset
        elif whence == SEEK_END:
            new = handle.file.size + offset
        else:
            raise KernelError(EINVAL, f"whence {whence}")
        if new < 0:
            raise KernelError(EINVAL, f"offset {new}")
        handle.cursor = new
        yield self.env.timeout(0.0)
        return new

    def ftell(self, fd: int) -> int:
        return self._handle(fd).cursor

    def stat(self, path: str) -> Generator:
        st = yield from self.kernel.stat(path)
        nv_file = self.tables.files.get((st.st_dev, st.st_ino))
        if nv_file is not None and nv_file.size != st.st_size:
            st = Stat(st.st_dev, st.st_ino, st.st_mode, nv_file.size, st.st_nlink)
        return st

    def fstat(self, fd: int) -> Generator:
        handle = self._handle(fd)
        st = yield from self.kernel.fstat(fd)
        if handle.file.size != st.st_size:
            st = Stat(st.st_dev, st.st_ino, st.st_mode, handle.file.size, st.st_nlink)
        return st

    # -- durability calls: already durable, so no-ops (paper Table III) --------

    def fsync(self, fd: int) -> Generator:
        self._handle(fd)
        self.stats.fsyncs_ignored += 1
        yield self.env.timeout(0.0)
        return 0

    def sync(self) -> Generator:
        self.stats.fsyncs_ignored += 1
        yield self.env.timeout(0.0)
        return 0

    fdatasync = syncfs = fsync  # data and metadata were durable alike

    # -- passthrough and the multi-process coherence point ---------------------

    def mkdir(self, path: str) -> Generator:
        return self.kernel.mkdir(path)

    def flock(self, fd: int, operation: int) -> Generator:
        """flock is the coherence point for multi-process sharing
        (paper §I): releasing a lock flushes this instance's user-space
        writes down to the kernel; acquiring one discards this instance's
        (possibly stale) clean cached pages (``_drop_clean``) and
        refreshes the file size, so reads under the lock see the other
        process's flushed writes."""
        handle = self._handle(fd)
        nv_file = handle.file
        if operation & LOCK_UN:
            # Unlock: everything we wrote must be visible through the
            # kernel to whoever locks next.
            if nv_file.pending_entries:
                yield self.cleanup.request_drain()
        elif operation & (LOCK_SH | LOCK_EX):
            # Acquire: another NVCache instance may have updated the file
            # through the kernel; drop our cached pages and re-stat.
            self._drop_clean(nv_file)
            st = yield from self.kernel.fstat(fd)
            if nv_file.pending_entries == 0:
                nv_file.size = st.st_size
        result = yield from self.kernel.flock(fd, operation)
        return result


class Nvcache(CacheFacade):
    """One NVCache instance: log + read cache + cleanup thread."""

    def __init__(self, env: Environment, kernel, nvmm: NvmmDevice,
                 config: NvcacheConfig = DEFAULT_CONFIG, name: str = "nvcache",
                 start_cleanup: bool = True):
        super().__init__(env, kernel, nvmm, config, name,
                         NvmmLog.required_size(config), "log")
        self.stats = NvcacheStats()
        self.log = NvmmLog(env, nvmm, config, self.stats)
        self.read_cache = ReadCache(
            env, config.read_cache_pages, config.page_size, self.stats)
        self.cleanup = CleanupThread(env, self.log, kernel, self.tables,
                                     config, self.stats)
        self._start(start_cleanup)

    def register_metrics(self, registry) -> None:
        """Expose the instance under ``core.nvcache.*`` plus the log
        (``core.log.*``) and cleanup thread (``core.cleanup.*``) scopes
        (see docs/OBSERVABILITY.md)."""
        stats = self.stats
        log = self.log

        m = registry.scope("core.nvcache")
        self._register_shared_metrics(m, "read")
        m.counter("read_hits", unit="ops", help="reads served from the "
                  "user-space read cache", fn=lambda: stats.read_hits)
        m.counter("read_misses", unit="ops", fn=lambda: stats.read_misses)
        m.counter("dirty_misses", unit="ops",
                  help="misses reconstructed from pending log entries "
                       "(paper §II-C dirty-miss procedure)",
                  fn=lambda: stats.dirty_misses)
        m.counter("evictions", unit="pages", help="read-cache CLOCK evictions",
                  fn=lambda: stats.evictions)
        m.counter("group_writes", unit="ops",
                  help="writes needing more than one log entry",
                  fn=lambda: stats.group_writes)

        m = registry.scope("core.log")
        m.gauge("entries_used", unit="entries", help="head - volatile tail",
                fn=log.used)
        m.gauge("entries_total", unit="entries", help="log capacity",
                fn=lambda: log.entries)
        m.gauge("occupancy", unit="ratio",
                help="used / capacity — Fig 5's saturation signal",
                fn=lambda: log.used() / log.entries)
        m.counter("entries_created", unit="entries",
                  help="log entries ever allocated",
                  fn=lambda: stats.entries_created)
        m.counter("full_waits", unit="ops",
                  help="writes stalled on a full log (backpressure)",
                  fn=lambda: stats.log_full_waits)

        m = registry.scope("core.cleanup")
        m.counter("batches", unit="ops", help="cleanup batches retired",
                  fn=lambda: stats.cleanup_batches)
        m.counter("entries_retired", unit="entries",
                  help="log entries propagated to the kernel — rate of "
                       "this counter is the drain rate",
                  fn=lambda: stats.cleanup_entries)
        m.counter("fsyncs", unit="ops",
                  help="syncfs barriers issued by the cleanup thread",
                  fn=lambda: stats.cleanup_fsyncs)
        m.counter("batch_aborts", unit="ops",
                  help="batches aborted on device I/O errors and retried "
                       "without advancing the persistent tail",
                  fn=lambda: stats.cleanup_batch_aborts)
        m.gauge("deferred_closes", unit="fds",
                help="fds whose kernel close awaits entry retirement",
                fn=lambda: len(self.tables.deferred_close))
        self.cleanup._m_batch_size = m.histogram(
            "batch_size", unit="entries", help="entries per retired batch",
            start=1.0, factor=2.0, buckets=24)

    # -- open / close (the kernel-level half; CacheFacade.close defers it) ---------

    def open(self, path: str, flags: int = O_RDONLY, mode: int = 0o644) -> Generator:
        self._check_path(path)
        # O_DIRECT is meaningless behind a durable user-space cache, and
        # the cleanup thread depends on page-cache write combining — so
        # NVCache strips it (the paper's FIO runs use direct=1 for every
        # system yet still report combining gains for NVCACHE).
        flags &= ~O_DIRECT
        creating = False
        if flags & O_CREAT:
            try:
                yield from self.kernel.stat(path)
            except KernelError as exc:
                if exc.errno != ENOENT:
                    raise
                creating = True
        fd = yield from self.kernel.open(path, flags, mode)
        if creating and self.log.pending_removal(path):
            # The log still holds an unlink of (or a rename away from)
            # this path. Recovery replays the namespace history strictly
            # in log order, so the recreation must appear after that
            # entry — otherwise its replay would remove the new file.
            # A creation with no pending removal needs no entry: replay
            # recreates such files lazily (O_CREAT) when applying their
            # writes.
            yield from self._log_namespace_op(
                OP_CREATE, 0, path.encode("utf-8"))
        st = yield from self.kernel.fstat(fd)
        key = (st.st_dev, st.st_ino)
        nv_file = self.tables.file_for(key, path, st.st_size, self.env)
        writable = (flags & O_ACCMODE) != O_RDONLY
        if flags & O_TRUNC and writable and nv_file.size:
            if nv_file.pending_entries:
                # Same stale-resurrection hazard as ftruncate; see there.
                yield self.cleanup.request_drain()
            yield from self._log_namespace_op(
                OP_TRUNCATE, 0, path.encode("utf-8"))
            nv_file.size = 0
        if writable and nv_file.pages is None:
            # First write-mode open: create the page map (paper §III).
            nv_file.pages = {}
        cursor = nv_file.size if flags & O_APPEND else 0
        self.tables.register(fd, nv_file, flags, cursor)
        self.log.paths.set(fd, path)
        yield from self.nvmm.psync()
        return fd

    def _finalize_fd(self, fd: int) -> Generator:
        """Kernel-level close once no log entry references the fd. The
        tables forget the fd in the step the kernel frees it: an open
        racing the psync below may be handed the same number."""
        yield from self.kernel.close(fd)
        nv_file = self.tables.retire_fd(fd)
        if (nv_file is not None and nv_file.open_count == 0
                and nv_file.pending_entries == 0 and nv_file.pages is not None):
            for _index, descriptor in sorted(nv_file.pages.items()):
                if descriptor.content is not None:
                    self.read_cache.release(descriptor.content)
            nv_file.pages = None
        self.log.paths.clear(fd)
        yield from self.nvmm.psync()
        return 0

    # -- write path (paper Algorithm 1) ------------------------------------------------

    def pwrite(self, fd: int, data: bytes, offset: int) -> Generator:
        handle = self._handle(fd, "writing", offset)
        if not data:
            yield self.env.timeout(0.0)
            return 0
        nv_file = handle.file
        config = self.config
        page_size = config.page_size
        self.stats.writes += 1
        self.stats.bytes_written += len(data)
        began = self.env.now
        tracer = self.env.tracer

        # Split into fixed-size entries (contiguous group allocation).
        chunk_size = config.entry_data_size
        chunk_count = (len(data) + chunk_size - 1) // chunk_size
        append_token = None
        if tracer is not None:
            append_token = tracer.begin(self.env, "core", "log_append",
                                        fd=fd, offset=offset,
                                        nbytes=len(data), entries=chunk_count)
        # Acquire the atomic locks of every written page, in page order,
        # and only then reserve the entries: every writer of a page takes
        # its seqs under that page's lock, so each page's pending entries
        # are in log order and the drain and recovery replay them in the
        # order readers saw them.
        first_page = offset // page_size
        last_page = (offset + len(data) - 1) // page_size
        descriptors = [nv_file.descriptor_or_create(page)
                       for page in range(first_page, last_page + 1)]
        lock_began = self.env.now
        for descriptor in descriptors:
            yield descriptor.atomic_lock.acquire()
        try:
            if tracer is not None:
                tracer.charge(self.env, "core", "lock_wait",
                              self.env.now - lock_began)
            leader_seq = yield from self.log.next_entries(chunk_count)
            if chunk_count > 1:
                self.stats.group_writes += 1
            yield self.env.delay(WRITE_OP_OVERHEAD, "core", "write_overhead")
            # Fill every entry (uncommitted for now).
            for i in range(chunk_count):
                chunk = data[i * chunk_size:(i + 1) * chunk_size]
                yield from self.log.fill_entry(
                    leader_seq + i, fd, offset + i * chunk_size, chunk,
                    leader_seq=None if i == 0 else leader_seq)
            if chunk_count == 1:
                self.log.keep_payload(leader_seq, offset, data)
            if tracer is not None:
                tracer.end(self.env, append_token, leader_seq=leader_seq)
                append_token = None
                for i in range(chunk_count):
                    tracer.bind_entry(self.env, leader_seq + i)

            # The volatile pending index per page (its length is the
            # dirty counter). Registered BEFORE the commit: the cleanup
            # thread only touches committed entries, so it can never
            # consume an entry that is not yet in the pending index (the
            # race the paper's footnote 4 tolerates as a
            # transiently-negative counter).
            for i in range(chunk_count):
                seq = leader_seq + i
                chunk_off = offset + i * chunk_size
                chunk_len = min(chunk_size, len(data) - i * chunk_size)
                for page in range(chunk_off // page_size,
                                  (chunk_off + chunk_len - 1) // page_size + 1):
                    descriptor = descriptors[page - first_page]
                    if not descriptor.pending:
                        descriptor.pending = deque()
                    descriptor.pending.append(seq)
                nv_file.pending_entries += 1
                self.tables.pending_by_fd[fd] = \
                    self.tables.pending_by_fd.get(fd, 0) + 1
            commit_token = None
            if tracer is not None:
                commit_token = tracer.begin(self.env, "core", "commit",
                                            leader_seq=leader_seq)
            try:
                yield from self.log.commit_leader(leader_seq)
            finally:
                if commit_token is not None:
                    tracer.end(self.env, commit_token)

            # Update any loaded page contents so reads stay coherent.
            for descriptor in descriptors:
                if descriptor.content is not None:
                    self._apply_to_content(descriptor, offset, data)
                    self.read_cache.note_access(descriptor)
                else:
                    descriptor.accessed = True
            if offset + len(data) > nv_file.size:
                nv_file.size = offset + len(data)
        finally:
            for descriptor in descriptors:
                descriptor.atomic_lock.release()
            if append_token is not None:
                tracer.end(self.env, append_token)
        if self._m_write_latency is not None:
            self._observe_latency(self._m_write_latency, began)
        return len(data)

    def _apply_to_content(self, descriptor: PageDescriptor, offset: int,
                          data: bytes) -> None:
        page_size = self.config.page_size
        page_start = descriptor.index * page_size
        overlap_start = max(offset, page_start)
        overlap_end = min(offset + len(data), page_start + page_size)
        if overlap_start >= overlap_end:
            return
        descriptor.content.data[overlap_start - page_start:overlap_end - page_start] = \
            data[overlap_start - offset:overlap_end - offset]

    # -- read path -------------------------------------------------------------------------

    def pread(self, fd: int, nbytes: int, offset: int) -> Generator:
        handle = self._handle(fd, "reading", offset, nbytes)
        nv_file = handle.file
        self.stats.reads += 1
        if offset >= nv_file.size:
            yield self.env.timeout(0.0)
            return b""
        nbytes = min(nbytes, nv_file.size - offset)
        began = self.env.now
        tracer = self.env.tracer
        if nv_file.pages is None:
            # Read-only file: the kernel page cache is authoritative and
            # NVCache stays entirely out of the way (paper §II-A).
            self.stats.read_only_bypass += 1
            data = yield from self.kernel.pread(fd, nbytes, offset)
            self._account_read(len(data), began)
            return data

        page_size = self.config.page_size
        out = bytearray()
        position = offset
        end = offset + nbytes
        while position < end:
            page, in_page = divmod(position, page_size)
            chunk = min(end - position, page_size - in_page)
            descriptor = nv_file.descriptor_or_create(page)
            lock_began = self.env.now
            yield descriptor.atomic_lock.acquire()
            try:
                if tracer is not None:
                    tracer.charge(self.env, "core", "lock_wait",
                                  self.env.now - lock_began)
                missed = descriptor.content is None
                if missed:
                    span, overhead = "read_miss", READ_MISS_OVERHEAD
                else:
                    span, overhead = "read_hit", READ_HIT_OVERHEAD
                    self.stats.read_hits += 1
                token = None
                if tracer is not None:
                    token = tracer.begin(self.env, "core", span,
                                         fd=fd, page=page)
                try:
                    if missed:
                        yield from self._load_page(handle, descriptor)
                    yield self.env.delay(overhead, "core", "read_overhead")
                finally:
                    if token is not None:
                        tracer.end(self.env, token)
                self.read_cache.note_access(descriptor)
                out += descriptor.content.data[in_page:in_page + chunk]
            finally:
                descriptor.atomic_lock.release()
            position += chunk
        self._account_read(len(out), began)
        return bytes(out)

    def _load_page(self, handle: NvOpenFile, descriptor: PageDescriptor) -> Generator:
        """Cache miss: take a read-cache page, read the page through the
        kernel and, if it is dirty, merge the pending log entries under
        the cleanup lock (paper §II-C dirty-miss procedure)."""
        self.stats.read_misses += 1
        content = yield from self.read_cache.allocate_content()
        page_size = self.config.page_size
        base = descriptor.index * page_size
        yield descriptor.cleanup_lock.acquire()
        try:
            kernel_data = yield from self.kernel.pread(handle.fd, page_size, base)
            buffer = bytearray(page_size)
            buffer[:len(kernel_data)] = kernel_data
            if descriptor.pending:
                self.stats.dirty_misses += 1
            for seq in descriptor.pending:
                _cg, _efd, entry_off, entry_size = self.log.read_header(seq)
                overlap_start = max(entry_off, base)
                overlap_end = min(entry_off + entry_size, base + page_size)
                if overlap_start >= overlap_end:
                    continue
                piece = yield from self.log.timed_read_range(
                    seq, overlap_start - entry_off, overlap_end - overlap_start)
                buffer[overlap_start - base:overlap_end - base] = piece
                self.stats.dirty_miss_entries_applied += 1
        finally:
            descriptor.cleanup_lock.release()
        content.data[:] = buffer
        self.read_cache.attach(descriptor, content)

    # -- namespace operations (logged for ordered replay, executed write-through) ------------------

    def ftruncate(self, fd: int, size: int) -> Generator:
        """Drain the file's pending entries first: a pending pre-truncate
        write replayed after the cut would resurrect stale bytes into any
        region a later write re-extends over. Truncate is not on any hot
        path of the paper's workloads (SQLite journal_mode=DELETE unlinks
        instead), so the drain is cheap in practice. The op is also
        logged so crash recovery repeats it in order."""
        handle = self._handle(fd)
        nv_file = handle.file
        if nv_file.pending_entries:
            yield self.cleanup.request_drain()
        yield from self._log_namespace_op(
            OP_TRUNCATE, size, nv_file.path.encode("utf-8"))
        yield from self.kernel.ftruncate(fd, size)
        nv_file.size = size
        if nv_file.pages is not None:
            page_size = self.config.page_size
            keep = (size + page_size - 1) // page_size
            for index, descriptor in sorted(nv_file.pages.items()):
                if index >= keep and descriptor.content is not None:
                    self.read_cache.release(descriptor.content)
                elif index == keep - 1 and descriptor.content is not None:
                    in_page = size - index * page_size
                    if in_page < page_size:
                        descriptor.content.data[in_page:] = b"\x00" * (page_size - in_page)
        return 0

    def _log_namespace_op(self, op: int, offset: int, payload: bytes) -> Generator:
        """Durably log a namespace operation so recovery replays it in
        order with the data writes (extension over the paper — see
        DESIGN.md). Live execution happens immediately at the caller; the
        cleanup thread merely retires these entries."""
        seq = yield from self.log.next_entries(1)
        yield from self.log.fill_entry(seq, op, offset, payload)
        yield from self.log.commit_leader(seq)

    def unlink(self, path: str) -> Generator:
        yield from self._log_namespace_op(OP_UNLINK, 0, path.encode("utf-8"))
        result = yield from self.kernel.unlink(path)
        return result

    def rename(self, old: str, new: str) -> Generator:
        """Descriptors still open on the moved file are rebound to its
        new name: recovery replays their later writes (and ftruncate
        logs its op) by that binding, and only follows renames logged
        after an entry. Recovery resolves *every* pending entry of an fd
        from its one binding, so the file's pending entries drain first,
        as in ftruncate: none older than the new binding may remain."""
        if any(h.file.pending_entries for h in self.tables.opened.values()
               if h.file.path == old):
            yield self.cleanup.request_drain()
        yield from self._log_namespace_op(
            OP_RENAME, 0, old.encode("utf-8") + b"\x00" + new.encode("utf-8"))
        result = yield from self.kernel.rename(old, new)
        for handle in [h for h in self.tables.opened.values()
                       if h.file.path == old]:
            handle.file.path = new
            self.log.paths.set(handle.fd, new)
            yield from self.nvmm.psync()
        return result

    def _drop_clean(self, nv_file) -> None:
        """flock acquire: release the file's loaded pages that have no
        pending entries (those are the only copy of unpropagated data)."""
        if nv_file.pages is not None:
            for _index, descriptor in sorted(nv_file.pages.items()):
                if descriptor.content is not None and not descriptor.pending:
                    self.read_cache.release(descriptor.content)

    # -- introspection -------------------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Internal consistency checks used by the property tests."""
        log = self.log
        assert log.volatile_tail <= log.head, "tail passed head"
        assert log.persistent_tail() <= log.volatile_tail, \
            "volatile tail behind persistent tail"
        assert log.used() <= log.entries, "log over capacity"
        for seq, payload in log._kept.items():
            assert log.volatile_tail <= seq < log.head, \
                f"kept payload of retired seq {seq}"
            assert payload == log.read_data(seq), \
                f"kept payload of seq {seq} differs from the media"
        for nv_file in self.tables.files.values():
            if nv_file.pages is None:
                continue
            for index, descriptor in sorted(nv_file.pages.items()):
                # The drain pops each page's index from the front in log
                # order, so the index must ascend within the live log.
                previous = log.volatile_tail - 1
                for seq in descriptor.pending:
                    assert previous < seq < log.head, (
                        f"page {index}: pending {list(descriptor.pending)} "
                        f"not ascending in [{log.volatile_tail}, {log.head})")
                    previous = seq
