"""Crash recovery (paper §III, Recovery procedure).

On start-up after a crash, NVCache:

1. reads the persistent fd→path table;
2. walks the ring from the persistent tail, applying every *committed*
   entry (a committed leader, or a follower whose leader is committed)
   in log order — data writes via ``pwrite`` on lazily-opened fds, and
   namespace operations (unlink/truncate/rename — our extension for
   ordered replay) via the matching syscalls;
3. invokes ``sync`` so the replayed writes are durable on mass storage;
4. empties the log and closes the files.

Because the cleanup thread retires entries strictly in order, the log at
crash time is a *suffix* of the propagation stream: replaying it over the
crash-time disk state simply resumes the in-order propagation, which is
what makes mixing data writes and namespace ops sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator

from ..kernel.errno import ENOENT
from ..kernel.fd_table import O_CREAT, O_RDWR
from ..nvmm import NvmmDevice
from ..sim import Environment
from .config import NvcacheConfig, cache_mode_row
from .log import NvmmLog, OP_CREATE, OP_RENAME, OP_TRUNCATE, OP_UNLINK


@dataclass
class RecoveryReport:
    """What the recovery pass found and did."""

    files_reopened: int = 0
    entries_scanned: int = 0
    entries_applied: int = 0
    entries_skipped_uncommitted: int = 0
    #: entries whose file incarnation a *later committed unlink* removed
    #: — replaying them would resurrect dead data (see ``resolve``).
    entries_skipped_dead: int = 0
    namespace_ops_replayed: int = 0
    creates_replayed: int = 0
    bytes_replayed: int = 0
    applied_by_path: Dict[str, int] = field(default_factory=dict)


def recover(env: Environment, kernel, nvmm: NvmmDevice,
            config: NvcacheConfig) -> Generator:
    """Replay what ``config.cache_mode`` persisted in NVMM into the
    kernel, through the mode's recover function (its ``CACHE_MODES``
    row). Returns a RecoveryReport.

    ``nvmm`` is the post-crash device (media image, empty CPU cache);
    ``kernel`` is the freshly booted kernel of the same machine.
    """
    return cache_mode_row(config.cache_mode)[2](env, kernel, nvmm, config)


def recover_log(env: Environment, kernel, nvmm: NvmmDevice,
                config: NvcacheConfig) -> Generator:
    """Replay the NVMM log (the logging layout)."""
    log = NvmmLog(env, nvmm, config)
    report = RecoveryReport()
    paths = log.paths.bound()
    open_fds: Dict[int, int] = {}         # logged fd -> live fd
    fds_by_path: Dict[str, list] = {}     # for unlink-induced closes

    def fd_for(logged_fd: int, path: str) -> Generator:
        live = open_fds.get(logged_fd)
        if live is None:
            live = yield from kernel.open(path, O_RDWR | O_CREAT)
            open_fds[logged_fd] = live
            fds_by_path.setdefault(path, []).append(logged_fd)
            report.files_reopened += 1
        return live

    def close_path(path: str) -> Generator:
        """Drop live fds bound to a path (it is being unlinked/renamed);
        later entries for a recreated path must open the new file."""
        for logged_fd in fds_by_path.pop(path, []):
            live = open_fds.pop(logged_fd, None)
            if live is not None:
                yield from kernel.close(live)
        # The logged fd may be referenced again after the unlink (same
        # descriptor, new inode under the same path after recreation):
        # fd_for will then lazily reopen.

    # One pass over the ring feeds both the namespace resolution and the
    # replay.
    committed, uncommitted = log.scan()
    report.entries_scanned = len(committed) + uncommitted
    report.entries_skipped_uncommitted = uncommitted

    # Namespace ops are applied to the kernel *write-through* (the app
    # must see them immediately) but retire from the log only when the
    # cleanup thread reaches them — so at crash time the disk namespace
    # already reflects renames whose entries are still in the ring.
    # Replaying an earlier entry against its recorded path would then
    # recreate a ghost file under the renamed-away name, and the later
    # rename's replay would move that ghost over the real target.
    # Pre-scan the committed renames, decide which were already applied
    # (their source is absent — sound because the workload applies ops
    # sequentially and rename targets are fresh names), and resolve
    # every earlier entry's path through them.
    # NVCache logs a namespace op and then applies it to the kernel
    # before returning, and the application issues ops sequentially — so
    # of the committed namespace entries in the ring, every one except
    # possibly the *newest* was already applied (the newest may be caught
    # between its commit and its kernel call).
    ns_seqs = []      # committed namespace entries, in log order
    renames = {}      # seq -> (old, new)
    unlinks = {}      # seq -> path
    for seq, logged_fd, _offset, size in committed:
        if logged_fd in (OP_CREATE, OP_UNLINK, OP_TRUNCATE, OP_RENAME):
            ns_seqs.append(seq)
            if logged_fd == OP_RENAME:
                renames[seq] = tuple(
                    log.read_data(seq, size).decode("utf-8").split("\x00", 1))
            elif logged_fd == OP_UNLINK:
                unlinks[seq] = log.read_data(seq, size).decode("utf-8")
    applied_renames = [(seq, *renames[seq]) for seq in ns_seqs[:-1]
                       if seq in renames]
    if ns_seqs and ns_seqs[-1] in renames:
        # The newest op is a rename: it was applied iff its source is
        # gone (nothing later in the log could have touched the source,
        # so plain existence is decisive here).
        old, new = renames[ns_seqs[-1]]
        try:
            yield from kernel.stat(old)
        except OSError as exc:
            if exc.errno != ENOENT:
                raise
            applied_renames.append((ns_seqs[-1], old, new))

    applied_rename_seqs = {seq for seq, _old, _new in applied_renames}

    def resolve(path: str, seq: int):
        """Current name of the file ``path`` referred to at entry
        ``seq``, or ``None`` if that file *incarnation* is dead: walk
        the committed namespace ops logged after ``seq`` in order,
        following applied renames — but a committed unlink of the
        current name kills the incarnation (a later create under the
        same name is a different file; a rename logged after the unlink
        moves the *new* incarnation, never this entry's data). Found by
        the fuzzer: pwrite → recreate → rename → unlink on one path
        replayed the first incarnation's data into the renamed
        successor (see docs/CRASH_TESTING.md, bug 7)."""
        for ns_seq in ns_seqs:
            if ns_seq <= seq:
                continue
            if ns_seq in renames:
                old, new = renames[ns_seq]
                if ns_seq not in applied_rename_seqs:
                    # Not applied before the crash: the in-order replay
                    # of this rename will move the file later; entries
                    # before it correctly target the pre-rename name.
                    break
                if path == old:
                    path = new
            elif ns_seq in unlinks and unlinks[ns_seq] == path:
                return None
        return path

    for seq, logged_fd, offset, size in committed:
        data = yield from log.timed_read_range(seq, 0, size)
        if logged_fd == OP_CREATE:
            # Recreate the (empty) file; a no-op if it already exists.
            path = resolve(data.decode("utf-8"), seq)
            if path is None:
                report.entries_skipped_dead += 1
                continue
            fd = yield from kernel.open(path, O_RDWR | O_CREAT)
            yield from kernel.close(fd)
            report.creates_replayed += 1
            continue
        if logged_fd == OP_UNLINK:
            path = data.decode("utf-8")
            yield from close_path(path)
            try:
                yield from kernel.unlink(path)
            except OSError as exc:
                if exc.errno != ENOENT:
                    raise
            report.namespace_ops_replayed += 1
            continue
        if logged_fd == OP_TRUNCATE:
            path = resolve(data.decode("utf-8"), seq)
            if path is None:
                report.entries_skipped_dead += 1
                continue
            fd = yield from kernel.open(path, O_RDWR | O_CREAT)
            yield from kernel.ftruncate(fd, offset)
            yield from kernel.close(fd)
            report.namespace_ops_replayed += 1
            continue
        if logged_fd == OP_RENAME:
            old, new = data.decode("utf-8").split("\x00", 1)
            if seq in applied_rename_seqs:
                # Already applied before the crash — and the source path
                # may since have been legitimately recreated (a logged
                # creation later in the ring), so re-running the rename
                # would move the *new* file onto the target.
                report.namespace_ops_replayed += 1
                continue
            yield from close_path(old)
            try:
                yield from kernel.rename(old, new)
            except OSError as exc:
                if exc.errno != ENOENT:
                    raise
            report.namespace_ops_replayed += 1
            continue
        if logged_fd not in paths:
            # No binding: the slot was durably cleared after retirement;
            # this entry's data already reached the disk.
            report.entries_skipped_uncommitted += 1
            continue
        path = resolve(paths[logged_fd], seq)
        if path is None:
            report.entries_skipped_dead += 1
            continue
        live = yield from fd_for(logged_fd, path)
        yield from kernel.pwrite(live, data, offset)
        report.entries_applied += 1
        report.bytes_replayed += len(data)
        report.applied_by_path[path] = report.applied_by_path.get(path, 0) + 1

    yield from kernel.sync()
    yield from log.reset(seq for seq, *_entry in committed)

    for logged_fd, live in open_fds.items():
        yield from kernel.close(live)
        log.paths.clear(logged_fd)
        yield from nvmm.psync()
    return report
