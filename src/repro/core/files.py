"""Volatile file bookkeeping: the file table and the opened table.

Paper §III (Open): two tables handle independent cursors when the same
file is opened twice — the *file table* maps (device, inode) to a file
structure (size + page map), the *opened table* maps an fd to a cursor
plus a pointer into the file table.

The page map stands in for the paper's per-file radix tree (§II-C). In C
the tree is what allows lock-free CAS insertion; under the simulator's
cooperative scheduling that insertion is a plain store, and neither
structure charges simulated time, so a dict keyed by page index is the
same model. Like the tree, it only ever gains entries until the file's
last close drops it whole; walks that must follow the tree's ascending
key order sort its items.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..sim import Environment
from .read_cache import PageDescriptor


@dataclass
class NvFile:
    """Per-(device, inode) state; shared by every fd open on the file."""

    key: Tuple[int, int]
    path: str
    size: int
    env: Environment
    # page index -> descriptor; created at first write-mode open.
    pages: Optional[Dict[int, PageDescriptor]] = None
    open_count: int = 0
    pending_entries: int = 0  # log entries not yet propagated for this file

    def descriptor_or_create(self, page_index: int) -> PageDescriptor:
        descriptor = self.pages.get(page_index)
        if descriptor is None:
            descriptor = self.pages[page_index] = PageDescriptor(
                self.env, page_index)
        return descriptor


@dataclass
class NvOpenFile:
    """Per-fd state: cursor + flags + pointer to the shared file."""

    fd: int
    file: NvFile
    flags: int
    cursor: int = 0


class FileTables:
    """The file table, the opened table, and the retirement bookkeeping.

    ``fd_files`` outlives application closes: the kernel close of an fd
    is *deferred* until the cleanup thread has retired every log entry
    referencing it — which both keeps the fd valid for the cleanup
    thread's pwrites and prevents the kernel from recycling the fd (and
    its NVMM path-table slot) while entries still name it.
    """

    def __init__(self):
        self.files: Dict[Tuple[int, int], NvFile] = {}
        self.opened: Dict[int, NvOpenFile] = {}
        # fd -> NvFile for every fd with a live kernel descriptor,
        # including application-closed fds awaiting retirement.
        self.fd_files: Dict[int, NvFile] = {}
        # fd -> number of unretired log entries naming that fd.
        self.pending_by_fd: Dict[int, int] = {}
        # fds the application closed that still have pending entries.
        self.deferred_close: set = set()

    def file_for(self, key: Tuple[int, int], path: str, size: int,
                 env: Environment) -> NvFile:
        nv_file = self.files.get(key)
        if nv_file is None:
            nv_file = NvFile(key=key, path=path, size=size, env=env)
            self.files[key] = nv_file
        else:
            # The inode may have been renamed since it was last open;
            # namespace ops logged through this file (ftruncate) must
            # carry its *current* name, or recovery would replay them
            # against a dead path once the rename entry retires.
            nv_file.path = path
        return nv_file

    def register(self, fd: int, nv_file: NvFile, flags: int, cursor: int = 0) -> NvOpenFile:
        handle = NvOpenFile(fd=fd, file=nv_file, flags=flags, cursor=cursor)
        self.opened[fd] = handle
        self.fd_files[fd] = nv_file
        nv_file.open_count += 1
        return handle

    def get(self, fd: int) -> Optional[NvOpenFile]:
        return self.opened.get(fd)

    def unregister(self, fd: int) -> NvOpenFile:
        """Application-level close: drop the cursor; the NvFile lives on
        while it still has pending entries (reopeners must share it for
        coherence)."""
        handle = self.opened.pop(fd)
        handle.file.open_count -= 1
        self._maybe_forget(handle.file)
        return handle

    def retire_fd(self, fd: int) -> Optional[NvFile]:
        """Final kernel-level retirement of a deferred-closed fd."""
        self.deferred_close.discard(fd)
        self.pending_by_fd.pop(fd, None)
        nv_file = self.fd_files.pop(fd, None)
        if nv_file is not None:
            self._maybe_forget(nv_file)
        return nv_file

    def _maybe_forget(self, nv_file: NvFile) -> None:
        if (nv_file.open_count == 0 and nv_file.pending_entries == 0
                and self.files.get(nv_file.key) is nv_file):
            del self.files[nv_file.key]
