"""Filesystem interface + the shared namespace (directory tree) machinery.

Concrete filesystems implement the *data plane* — ``read_page``,
``write_page``, ``commit`` — as timed generators; the namespace (path
lookup, create, unlink, rename, mkdir) is common and kept in core memory,
as a real kernel's dcache/icache would be.

``uses_page_cache`` tells the kernel whether data I/O for this filesystem
flows through the volatile page cache (Ext4 on a block device) or goes
straight to the filesystem (DAX filesystems, tmpfs). The latter kind is
memory-resident and shares one data plane, :class:`PageStoreFilesystem`:
NOVA, Ext4-DAX and tmpfs differ only in what a page access costs.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Generator, List, Optional, Tuple

from ..kernel.errno import (
    EEXIST,
    EINVAL,
    EISDIR,
    ENOENT,
    ENOSPC,
    ENOTDIR,
    ENOTEMPTY,
    KernelError,
)
from ..kernel.inode import Inode, S_IFDIR, S_IFREG
from ..kernel.page_cache import PAGE_SIZE, ZERO_PAGE
from ..sim import Environment

_device_ids = itertools.count(1)


def split_path(path: str) -> List[str]:
    """Normalize a path into components (no support for .. escapes)."""
    parts: List[str] = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            if parts:
                parts.pop()
            continue
        parts.append(part)
    return parts


class Filesystem:
    """Base class for all simulated filesystems."""

    uses_page_cache = True
    name = "fs"

    def __init__(self, env: Environment):
        self.env = env
        self.device_id = next(_device_ids)
        self._inode_numbers = itertools.count(2)
        self.root = Inode(number=1, mode=S_IFDIR | 0o755, device_id=self.device_id)
        self.root.private["children"] = {}

    # -- namespace -------------------------------------------------------------

    def _new_inode(self, mode: int) -> Inode:
        inode = Inode(number=next(self._inode_numbers), mode=mode,
                      device_id=self.device_id)
        if mode & S_IFDIR:
            inode.private["children"] = {}
        return inode

    def _walk_dir(self, components: List[str]) -> Inode:
        node = self.root
        for part in components:
            if not node.is_dir:
                raise KernelError(ENOTDIR, "/".join(components))
            children = node.private["children"]
            node = children.get(part)
            if node is None:
                raise KernelError(ENOENT, "/".join(components))
        if not node.is_dir:
            raise KernelError(ENOTDIR, "/".join(components))
        return node

    def lookup(self, path: str) -> Optional[Inode]:
        parts = split_path(path)
        node = self.root
        for part in parts:
            if not node.is_dir:
                return None
            node = node.private["children"].get(part)
            if node is None:
                return None
        return node

    def create(self, path: str) -> Inode:
        parts = split_path(path)
        if not parts:
            raise KernelError(EISDIR, path)
        parent = self._walk_dir(parts[:-1])
        children = parent.private["children"]
        if parts[-1] in children:
            raise KernelError(EEXIST, path)
        inode = self._new_inode(S_IFREG | 0o644)
        children[parts[-1]] = inode
        return inode

    def mkdir(self, path: str) -> Inode:
        parts = split_path(path)
        if not parts:
            raise KernelError(EEXIST, path)
        parent = self._walk_dir(parts[:-1])
        children = parent.private["children"]
        if parts[-1] in children:
            raise KernelError(EEXIST, path)
        inode = self._new_inode(S_IFDIR | 0o755)
        children[parts[-1]] = inode
        return inode

    def unlink(self, path: str) -> Inode:
        parts = split_path(path)
        if not parts:
            raise KernelError(EISDIR, path)
        parent = self._walk_dir(parts[:-1])
        children = parent.private["children"]
        inode = children.get(parts[-1])
        if inode is None:
            raise KernelError(ENOENT, path)
        if inode.is_dir:
            if inode.private["children"]:
                raise KernelError(ENOTEMPTY, path)
        del children[parts[-1]]
        inode.nlink -= 1
        if inode.nlink == 0 and inode.is_regular:
            self.release_data(inode)
        return inode

    def rename(self, old: str, new: str) -> None:
        old_parts = split_path(old)
        new_parts = split_path(new)
        if not old_parts or not new_parts:
            raise KernelError(EINVAL, f"{old} -> {new}")
        old_parent = self._walk_dir(old_parts[:-1])
        inode = old_parent.private["children"].get(old_parts[-1])
        if inode is None:
            raise KernelError(ENOENT, old)
        new_parent = self._walk_dir(new_parts[:-1])
        replaced = new_parent.private["children"].get(new_parts[-1])
        if replaced is not None and replaced.is_regular:
            replaced.nlink -= 1
            if replaced.nlink == 0:
                self.release_data(replaced)
        del old_parent.private["children"][old_parts[-1]]
        new_parent.private["children"][new_parts[-1]] = inode

    def listdir(self, path: str) -> List[str]:
        node = self._walk_dir(split_path(path))
        return sorted(node.private["children"].keys())

    # -- data plane (override in subclasses) ---------------------------------------

    def read_page(self, inode: Inode, index: int) -> Generator:
        """Timed read of one PAGE_SIZE page (zero-filled past allocation)."""
        raise NotImplementedError
        yield  # pragma: no cover

    def write_page(self, inode: Inode, index: int, data: bytes) -> Generator:
        """Timed write of one full page."""
        raise NotImplementedError
        yield  # pragma: no cover

    def commit(self, inode: Optional[Inode] = None) -> Generator:
        """Durability barrier (journal commit and/or device flush)."""
        raise NotImplementedError
        yield  # pragma: no cover

    def release_data(self, inode: Inode) -> None:
        """Free the inode's data blocks after the last unlink."""

    def truncate(self, inode: Inode, size: int) -> None:
        inode.size = size

    # -- direct I/O (shared implementation over the page interface) ----------------

    def direct_read(self, inode: Inode, offset: int, nbytes: int) -> Generator:
        if offset >= inode.size:
            return b""
        nbytes = min(nbytes, inode.size - offset)
        out = bytearray()
        pos = offset
        end = offset + nbytes
        while pos < end:
            index, in_page = divmod(pos, PAGE_SIZE)
            chunk = min(end - pos, PAGE_SIZE - in_page)
            page = yield from self.read_page(inode, index)
            out += page[in_page:in_page + chunk]
            pos += chunk
        return bytes(out)

    def direct_write(self, inode: Inode, offset: int, data: bytes) -> Generator:
        pos = 0
        while pos < len(data):
            absolute = offset + pos
            index, in_page = divmod(absolute, PAGE_SIZE)
            chunk = min(len(data) - pos, PAGE_SIZE - in_page)
            if in_page == 0 and chunk == PAGE_SIZE:
                page = data[pos:pos + chunk]
            else:
                existing = yield from self.read_page(inode, index)
                page = bytearray(existing)
                page[in_page:in_page + chunk] = data[pos:pos + chunk]
                page = bytes(page)
            yield from self.write_page(inode, index, page)
            pos += chunk
        if offset + len(data) > inode.size:
            inode.size = offset + len(data)


class PageStoreFilesystem(Filesystem):
    """Data plane of the page-cache-less, memory-resident filesystems.

    Pages live in one ``(inode number, page index) -> bytes`` dict,
    optionally bounded by the capacity of the medium behind it (ENOSPC
    once every page is claimed). A subclass is its cost model: what one
    page read, one page write and one durability barrier cost, each
    charged as a single timed step (``fs.direct_read``,
    ``fs.direct_write``, ``fs.commit``). Each cost hook runs exactly once
    per operation, so a subclass may keep journal state in them.
    """

    uses_page_cache = False

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        super().__init__(env)
        self._pages: Dict[Tuple[int, int], bytes] = {}
        self._capacity_pages = \
            math.inf if capacity is None else capacity // PAGE_SIZE

    # -- cost model (override in subclasses) ---------------------------------------

    def _read_cost(self) -> float:
        raise NotImplementedError

    def _write_cost(self, fresh: bool) -> float:
        """Cost of one page write; ``fresh`` if it allocated the page."""
        raise NotImplementedError

    def _commit_cost(self) -> float:
        raise NotImplementedError

    # -- storage -------------------------------------------------------------------

    def _claim(self, key: Tuple[int, int]) -> bool:
        """Allocate the (zero-filled) page ``key`` unless it exists already;
        returns whether it was allocated."""
        if key in self._pages:
            return False
        if len(self._pages) >= self._capacity_pages:
            raise KernelError(ENOSPC, f"{self.name}: NVMM full")
        self._pages[key] = ZERO_PAGE
        return True

    def read_page(self, inode: Inode, index: int) -> Generator:
        yield self.env.delay(self._read_cost(), "fs", "direct_read")
        return self._pages.get((inode.number, index), ZERO_PAGE)

    def write_page(self, inode: Inode, index: int, data: bytes) -> Generator:
        if len(data) != PAGE_SIZE:
            data = data[:PAGE_SIZE].ljust(PAGE_SIZE, b"\x00")
        key = (inode.number, index)
        fresh = self._claim(key)
        yield self.env.delay(self._write_cost(fresh), "fs", "direct_write")
        self._pages[key] = bytes(data)

    def commit(self, inode: Optional[Inode] = None) -> Generator:
        yield self.env.delay(self._commit_cost(), "fs", "commit")

    def sync(self) -> Generator:
        return self.commit()

    def release_data(self, inode: Inode) -> None:
        self.truncate(inode, 0)

    def truncate(self, inode: Inode, size: int) -> None:
        keep = (size + PAGE_SIZE - 1) // PAGE_SIZE
        for key in [k for k in self._pages if k[0] == inode.number and k[1] >= keep]:
            del self._pages[key]
        # Zero the boundary page past the cut (as real filesystems do), or
        # a later extension would expose the pre-truncate bytes again.
        tail = size % PAGE_SIZE
        boundary = (inode.number, keep - 1)
        if tail and boundary in self._pages:
            self._pages[boundary] = \
                self._pages[boundary][:tail].ljust(PAGE_SIZE, b"\x00")
        inode.size = size

    def used_bytes(self) -> int:
        return len(self._pages) * PAGE_SIZE
