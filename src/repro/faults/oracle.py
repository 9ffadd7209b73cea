"""The in-memory oracle: what the files *should* contain after a crash.

:class:`FileModelOracle` is a plain-Python model of the visible POSIX
file state (path -> bytes). The tracked libc wrapper reports every
mutating call to it in two phases — ``begin(op)`` when the call enters,
``ack()`` when it returns to the application — so at any crash point the
oracle knows exactly two legal recovered states:

- **before**: every acknowledged operation applied, the in-flight one
  dropped (it never happened);
- **after**: the in-flight operation applied too (it made it to the log
  before the power failed).

Durable linearizability (DESIGN.md §3) says post-crash recovery must
produce one of those two states, atomically — nothing in between, and
never missing an acknowledged op. The judge in
:mod:`repro.faults.invariants` checks recovered state against both.

Scope note: the model tracks path-visible contents only. Workloads that
write through an fd *after* unlinking its path (orphaned-inode I/O)
are outside the model — the crash workloads and the property generator
do not produce that pattern (see docs/CRASH_TESTING.md, Limitations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional, Set, Tuple

from ..kernel.fd_table import O_ACCMODE, O_APPEND, O_CREAT, O_RDONLY, O_TRUNC
from ..libc import NvcacheLibc


@dataclass
class OracleOp:
    """One application-visible mutating call."""

    kind: str                  # open | pwrite | unlink | rename | ftruncate | close
    path: str = ""
    path2: str = ""            # rename destination
    offset: int = 0
    data: bytes = b""
    size: int = 0              # ftruncate length
    flags: int = 0             # open flags

    def describe(self) -> str:
        if self.kind == "pwrite":
            return f"pwrite {self.path}+{self.offset}:{len(self.data)}"
        if self.kind == "rename":
            return f"rename {self.path} -> {self.path2}"
        if self.kind == "ftruncate":
            return f"ftruncate {self.path} to {self.size}"
        return f"{self.kind} {self.path}"


class FileModelOracle:
    """Reference model of path-visible file contents."""

    def __init__(self):
        self.files: Dict[str, bytearray] = {}
        #: every path that ever existed — recovered state is read (and
        #: absence asserted) over this whole set, so a resurrected
        #: unlinked file cannot hide.
        self.ever: Set[str] = set()
        self.inflight: Optional[OracleOp] = None
        self.acked_ops = 0

    # -- the two-phase protocol -------------------------------------------

    def begin(self, op: OracleOp) -> None:
        if self.inflight is not None:
            raise RuntimeError(
                f"oracle op {self.inflight.describe()} still in flight")
        self.inflight = op

    def ack(self) -> None:
        op = self.inflight
        if op is None:
            raise RuntimeError("ack() with no op in flight")
        self.inflight = None
        self._apply(self.files, op)
        self.ever.update(path for path in (op.path, op.path2) if path)
        self.acked_ops += 1

    def abort(self) -> None:
        """The call raised: it never happened."""
        self.inflight = None

    # -- model application -------------------------------------------------

    @staticmethod
    def _writable(flags: int) -> bool:
        return (flags & O_ACCMODE) != O_RDONLY

    def _apply(self, files: Dict[str, bytearray], op: OracleOp) -> None:
        if op.kind == "open":
            if op.flags & O_CREAT and op.path not in files:
                files[op.path] = bytearray()
            if op.flags & O_TRUNC and self._writable(op.flags) \
                    and op.path in files:
                files[op.path] = bytearray()
        elif op.kind == "pwrite":
            buffer = files.setdefault(op.path, bytearray())
            end = op.offset + len(op.data)
            if end > len(buffer):
                buffer.extend(b"\x00" * (end - len(buffer)))
            buffer[op.offset:end] = op.data
        elif op.kind == "unlink":
            files.pop(op.path, None)
        elif op.kind == "rename":
            if op.path in files:
                files[op.path2] = files.pop(op.path)
        elif op.kind == "ftruncate":
            buffer = files.setdefault(op.path, bytearray())
            if op.size <= len(buffer):
                del buffer[op.size:]
            else:
                buffer.extend(b"\x00" * (op.size - len(buffer)))
        elif op.kind == "close":
            pass
        else:
            raise ValueError(f"unknown oracle op kind {op.kind!r}")

    # -- expected states at a crash point ----------------------------------

    def paths_of_interest(self) -> Set[str]:
        paths = set(self.ever) | set(self.files)
        if self.inflight is not None:
            if self.inflight.path:
                paths.add(self.inflight.path)
            if self.inflight.path2:
                paths.add(self.inflight.path2)
        return paths

    def expected_states(self) -> Tuple[Dict[str, Optional[bytes]],
                                       Dict[str, Optional[bytes]]]:
        """(before, after) over :meth:`paths_of_interest`; ``None`` means
        the path must not exist."""
        paths = self.paths_of_interest()
        before = {path: bytes(self.files[path]) if path in self.files else None
                  for path in paths}
        if self.inflight is None:
            return before, dict(before)
        shadow = {path: bytearray(content)
                  for path, content in self.files.items()}
        self._apply(shadow, self.inflight)
        after = {path: bytes(shadow[path]) if path in shadow else None
                 for path in paths}
        return before, after


class TrackedNvcacheLibc(NvcacheLibc):
    """An :class:`~repro.libc.NvcacheLibc` that narrates every mutating
    call to a :class:`FileModelOracle` (begin at entry, ack at return).
    Read-side and metadata calls pass through untouched."""

    def __init__(self, nvcache, oracle: FileModelOracle):
        super().__init__(nvcache)
        self.oracle = oracle
        self._paths: Dict[int, str] = {}

    def _narrate(self, op: OracleOp, call: Generator) -> Generator:
        """Run ``call`` as the oracle's in-flight ``op``: begun at entry,
        acknowledged at return, aborted if the call raises."""
        self.oracle.begin(op)
        try:
            result = yield from call
        except BaseException:
            self.oracle.abort()
            raise
        self.oracle.ack()
        return result

    def open(self, path, flags=0, mode=0o644) -> Generator:
        fd = yield from self._narrate(OracleOp("open", path=path, flags=flags),
                                      self.nvcache.open(path, flags, mode))
        self._paths[fd] = path
        return fd

    def close(self, fd) -> Generator:
        result = yield from self._narrate(
            OracleOp("close", path=self._paths.get(fd, "")),
            self.nvcache.close(fd))
        self._paths.pop(fd, None)
        return result

    def _write_op(self, fd, data, offset) -> OracleOp:
        return OracleOp("pwrite", path=self._paths.get(fd, ""),
                        offset=offset, data=bytes(data))

    def pwrite(self, fd, data, offset) -> Generator:
        return (yield from self._narrate(
            self._write_op(fd, data, offset),
            self.nvcache.pwrite(fd, data, offset)))

    def write(self, fd, data) -> Generator:
        handle = self.nvcache._handle(fd)
        offset = handle.file.size if handle.flags & O_APPEND else handle.cursor
        return (yield from self._narrate(self._write_op(fd, data, offset),
                                         self.nvcache.write(fd, data)))

    def unlink(self, path) -> Generator:
        return (yield from self._narrate(OracleOp("unlink", path=path),
                                         self.nvcache.unlink(path)))

    def rename(self, old, new) -> Generator:
        return (yield from self._narrate(
            OracleOp("rename", path=old, path2=new),
            self.nvcache.rename(old, new)))

    def ftruncate(self, fd, size) -> Generator:
        return (yield from self._narrate(
            OracleOp("ftruncate", path=self._paths.get(fd, ""), size=size),
            self.nvcache.ftruncate(fd, size)))
