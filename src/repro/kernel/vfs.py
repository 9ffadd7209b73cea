"""VFS: the mount table and path resolution."""

from __future__ import annotations

from typing import List, Tuple

from .errno import EBUSY, ENOENT, KernelError


def normalize(path: str) -> str:
    """Collapse a path to canonical absolute form."""
    if not path.startswith("/"):
        path = "/" + path
    parts: List[str] = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            if parts:
                parts.pop()
            continue
        parts.append(part)
    return "/" + "/".join(parts)


class Vfs:
    """Maps absolute paths onto (filesystem, fs-relative path)."""

    def __init__(self):
        self._mounts: List[Tuple[str, object]] = []  # sorted longest-first

    def mount(self, mountpoint: str, filesystem) -> None:
        mountpoint = normalize(mountpoint)
        if any(mp == mountpoint for mp, _fs in self._mounts):
            raise KernelError(EBUSY, f"{mountpoint} already mounted")
        self._mounts.append((mountpoint, filesystem))
        self._mounts.sort(key=lambda item: len(item[0]), reverse=True)

    def resolve(self, path: str) -> Tuple[object, str]:
        """Return (filesystem, path inside that filesystem)."""
        path = normalize(path)
        for mountpoint, filesystem in self._mounts:
            if path == mountpoint:
                return filesystem, "/"
            prefix = mountpoint if mountpoint.endswith("/") else mountpoint + "/"
            if path.startswith(prefix) or mountpoint == "/":
                rel = path[len(mountpoint):] or "/"
                if not rel.startswith("/"):
                    rel = "/" + rel
                return filesystem, rel
        raise KernelError(ENOENT, f"no filesystem for {path}")

    def filesystems(self) -> List[object]:
        return [fs for _mp, fs in self._mounts]

    def mounts(self) -> List[Tuple[str, object]]:
        """``(mountpoint, filesystem)`` pairs, longest mountpoint first."""
        return list(self._mounts)
