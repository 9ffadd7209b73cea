"""The cleanup thread: asynchronous propagation from the NVMM log to the
mass storage through legacy syscalls (paper §II-A, §III).

:class:`DrainThread` is what every mode's background thread shares;
:class:`CleanupThread`, described below, is the logging modes' subclass
(paging's ``WritebackThread`` is the other).

Batching (paper §IV-C): the thread waits until at least ``batch_min``
entries are pending (or an idle/drain deadline passes), consumes up to
``batch_max`` entries with plain ``pwrite``s — letting the kernel page
cache combine writes that hit the same page — and issues ONE ``fsync``
per touched file per batch instead of one per write.

Retirement follows the paper's three steps: (1) pwrite+fsync the entries,
(2) durably clear their commit words and advance the persistent tail,
(3) advance the volatile tail so writers can reuse the slots. Groups
(multi-entry writes) are always retired whole, so the persistent tail
never lands inside a half-propagated group.

The thread is also the wake-up source for two kinds of parked waiters
(no polling on their side): *drain* waiters (``request_drain`` — fired
once the volatile tail passes the head observed at request time) and
*close-headroom* waiters (``request_close_headroom`` — fired when the
deferred-close backlog shrinks below the caller's threshold; this is
``CacheFacade.close``'s backpressure valve against fd-table exhaustion).
Only the thread itself polls, at ``_TICK`` while idle, which is the
paper's design and keeps the batching timing model untouched.

Observability: with a metrics registry attached (docs/OBSERVABILITY.md),
the thread reports batch/entry/fsync counters, the deferred-close
backlog, and a per-batch size histogram under ``core.cleanup.*`` — the
rate of ``core.cleanup.entries_retired`` is the drain rate the paper's
Fig 5 saturation analysis hinges on.
"""

from __future__ import annotations

from typing import Generator, List, Tuple

from ..kernel.errno import KernelError
from ..sim import Environment, Waitable
from .config import NvcacheConfig
from .files import FileTables
from .log import FOLLOWER_BASE, NvmmLog
from .stats import NvcacheStats

_TICK = 1e-3  # poll interval while idle (simulated seconds)


class DrainThread:
    """What every mode's background drain thread shares: the lifecycle
    (start/stop), the close-headroom waiters, and kernel-closing
    deferred fds once nothing pending references them. A subclass
    supplies ``_run`` (its batching loop) and ``request_drain`` (what
    "drained" means for its NVMM layout)."""

    process_name = "drain"  # simulated process name; the tracer's track

    def __init__(self, env: Environment, kernel, tables: FileTables,
                 config: NvcacheConfig, stats):
        self.env = env
        self.kernel = kernel
        self.tables = tables
        self.config = config
        self.stats = stats
        self.running = False
        self._process = None
        # Set by the cache: generator performing the kernel-level close
        # of a deferred fd (CacheFacade._finalize_fd).
        self.finalize_fd = None
        self._close_waiters: List[Tuple[int, Waitable]] = []
        self._last_progress = 0.0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Run the thread. A thread stopped and restarted before its
        tick elapsed is still suspended on that tick and simply carries
        on, so a new one is spawned only when none is alive."""
        self.running = True
        if self._process is None or not self._process.alive:
            self._last_progress = self.env.now
            self._process = self.env.spawn(self._run(),
                                           name=self.process_name)

    def stop(self) -> None:
        """Ask the thread to exit at its next wake-up."""
        self.running = False

    # -- close back-pressure ---------------------------------------------------

    def request_close_headroom(self, threshold: int) -> Waitable:
        """A waitable that fires once the deferred-close backlog is at or
        below ``threshold``. Used by ``CacheFacade.close`` as its
        backpressure valve instead of polling the backlog on a timer."""
        waiter = Waitable(self.env)
        if len(self.tables.deferred_close) <= threshold:
            waiter._fire(None)
        else:
            self._close_waiters.append((threshold, waiter))
        return waiter

    def _fire_close_waiters(self) -> None:
        if not self._close_waiters:
            return
        backlog = len(self.tables.deferred_close)
        still_waiting = []
        for threshold, waiter in self._close_waiters:
            if backlog <= threshold:
                waiter._fire(None)
            else:
                still_waiting.append((threshold, waiter))
        self._close_waiters = still_waiting

    def _finalize_deferred(self) -> Generator:
        """Kernel-close application-closed fds whose pending work is all
        retired, then wake the closes parked on the backlog."""
        if self.finalize_fd is not None:
            for fd in sorted(self.tables.deferred_close):
                if self.tables.pending_by_fd.get(fd, 0) == 0:
                    yield from self.finalize_fd(fd)
        self._fire_close_waiters()


class CleanupThread(DrainThread):
    """The background propagation thread of one NVCache instance."""

    process_name = "nvcache-cleanup"

    def __init__(self, env: Environment, log: NvmmLog, kernel, tables: FileTables,
                 config: NvcacheConfig, stats: NvcacheStats):
        super().__init__(env, kernel, tables, config, stats)
        self.log = log
        # Set by Nvcache.register_metrics when observability is on.
        self._m_batch_size = None
        self._drain_waiters: List[Tuple[int, Waitable]] = []
        # Entries whose pwrite + index bookkeeping succeeded in a batch
        # that later aborted on an I/O error (before clear_entries). The
        # retry must fsync them again but must not re-run the
        # bookkeeping: the per-descriptor pending queues were already
        # popped. Cleared when the batch finally retires.
        self._propagated: set = set()

    def request_drain(self) -> Waitable:
        """A waitable that fires once everything logged *so far* has been
        propagated and retired."""
        target = self.log.head
        waiter = Waitable(self.env)
        if self.log.volatile_tail >= target:
            waiter._fire(None)
        else:
            self._drain_waiters.append((target, waiter))
        return waiter

    def _fire_drains(self) -> None:
        still_waiting = []
        for target, waiter in self._drain_waiters:
            if self.log.volatile_tail >= target:
                waiter._fire(None)
            else:
                still_waiting.append((target, waiter))
        self._drain_waiters = still_waiting

    # -- the thread body ---------------------------------------------------------

    def _run(self) -> Generator:
        while self.running:
            pending = self.log.used()
            if pending == 0:
                self._last_progress = self.env.now
                yield self.env.timeout(_TICK)
                continue
            qos = self.env.qos
            urgent = (bool(self._drain_waiters)
                      or bool(self.log._space_waiters)  # writers stalled
                      or pending >= self.log.entries // 2  # log near full
                      or len(self.tables.deferred_close) > 64  # fds piling up
                      # Quota-aware ordering: a tenant parked at the QoS
                      # admission gate can only unblock via retirement,
                      # so collapse the batch-min wait while any waits.
                      or (qos is not None and qos.pressure())
                      or self.env.now - self._last_progress >= self.config.cleanup_idle_flush)
            if pending < self.config.batch_min and not urgent:
                yield self.env.timeout(_TICK)
                continue
            consumed = yield from self._consume_batch()
            if consumed == 0:
                # Tail entry allocated but not committed yet: wait for the
                # writer (paper: "the cleanup thread waits").
                yield self.env.timeout(_TICK / 10)
            else:
                self._last_progress = self.env.now
                self._fire_drains()

    def _collect_batch(self) -> List[int]:
        start = self.log.volatile_tail
        limit = min(self.log.used(), self.config.batch_max)
        batch: List[int] = []
        for seq in range(start, start + limit):
            if not self.log.is_committed(seq):
                break
            batch.append(seq)
        # Never split a group: absorb trailing committed followers.
        while batch:
            next_seq = start + len(batch)
            if next_seq >= self.log.head:
                break
            commit_group = self.log.commit_group_of(next_seq)
            if commit_group >= FOLLOWER_BASE and self.log.is_committed(next_seq):
                batch.append(next_seq)
            else:
                break
        return batch

    def _consume_batch(self) -> Generator:
        batch = self._collect_batch()
        if not batch:
            yield self.env.timeout(0.0)
            return 0
        tracer = self.env.tracer
        batch_token = None
        if tracer is not None:
            # The drain batch is its own root (the cleanup thread's
            # process); retired entries link it back to the traces of the
            # originating writes (flow arrows in the Perfetto export).
            batch_token = tracer.begin(self.env, "core", "drain_batch",
                                       entries=len(batch))
            for seq in batch:
                tracer.link_entry(batch_token, seq)
        touched_fds = set()
        page_size = self.config.page_size
        completed = []
        try:
            for seq in batch:
                if seq in self._propagated:
                    # Retry after an aborted batch: the pwrite and index
                    # bookkeeping already happened; only the fsync below
                    # still needs to cover this entry.
                    fd = self.log.read_header(seq)[1]
                    if fd >= 0:
                        touched_fds.add(fd)
                    continue
                _cg, fd, offset, data = yield from self.log.timed_read_entry(seq)
                if fd < 0:
                    # Namespace op (unlink/truncate/rename): already executed
                    # live; logged only so recovery replays it in order.
                    continue
                nv_file = self.tables.fd_files.get(fd)
                first_page = offset // page_size
                last_page = (offset + max(len(data), 1) - 1) // page_size
                descriptors = []
                if nv_file is not None and nv_file.radix is not None:
                    for page in range(first_page, last_page + 1):
                        descriptor = nv_file.descriptor(page)
                        if descriptor is not None:
                            descriptors.append(descriptor)
                for descriptor in descriptors:
                    yield descriptor.cleanup_lock.acquire()
                try:
                    yield from self.kernel.pwrite(fd, data, offset)
                    for descriptor in descriptors:
                        descriptor.dirty_counter -= 1
                        if descriptor.pending and descriptor.pending[0] == seq:
                            descriptor.pending.popleft()
                        else:  # defensive: out-of-order retirement is a bug
                            descriptor.pending.remove(seq)
                finally:
                    for descriptor in descriptors:
                        descriptor.cleanup_lock.release()
                if nv_file is not None:
                    nv_file.pending_entries -= 1
                remaining = self.tables.pending_by_fd.get(fd, 0) - 1
                self.tables.pending_by_fd[fd] = max(0, remaining)
                touched_fds.add(fd)
                completed.append(seq)
            # One durability barrier per filesystem, not per file: jbd2 groups
            # the commits of files synced back-to-back into one transaction,
            # so a batch touching many short-lived files (SQLite journals)
            # still pays a single device flush.
            synced_filesystems = set()
            for fd in sorted(touched_fds):
                open_file = self.kernel.fds.lookup(fd)
                if open_file is None:
                    continue
                if id(open_file.filesystem) in synced_filesystems:
                    continue
                yield from self.kernel.syncfs(fd)
                synced_filesystems.add(id(open_file.filesystem))
                self.stats.cleanup_fsyncs += 1
        except KernelError:
            # Device-level I/O error (e.g. an injected write failure):
            # abort the batch WITHOUT clearing entries or advancing any
            # tail — the log still holds everything that is not durably
            # on disk, so a crash now loses nothing and the next pass
            # retries. Entries whose bookkeeping already ran are
            # remembered so the retry does not double-pop them.
            self._propagated.update(completed)
            self.stats.cleanup_batch_aborts += 1
            if tracer is not None:
                tracer.end(self.env, batch_token, status="aborted")
                batch_token = None
            return 0
        yield from self.log.clear_entries(batch)
        self.log.advance_volatile_tail(batch[-1] + 1)
        qos = self.env.qos
        if qos is not None:
            # Release tenant/class charges and wake admissible QoS
            # waiters in (priority, arrival) order.
            qos.note_retired(batch)
        self._propagated.difference_update(batch)
        self.stats.cleanup_batches += 1
        self.stats.cleanup_entries += len(batch)
        recorder = self.env.crash_points
        if recorder is not None:
            recorder.hit("core.cleanup.batch_retired",
                         f"{len(batch)} entries, tail {batch[-1] + 1}")
        if self._m_batch_size is not None:
            self._m_batch_size.observe(len(batch))
        if tracer is not None:
            tracer.end(self.env, batch_token, status="retired",
                       log_used=self.log.used())
            batch_token = None
        yield from self._finalize_deferred()
        return len(batch)
