"""Errno values and the exception type raised by simulated syscalls."""

from __future__ import annotations

EPERM = 1
ENOENT = 2
EIO = 5
EBADF = 9
EACCES = 13
EBUSY = 16
EEXIST = 17
ENOTDIR = 20
EISDIR = 21
EINVAL = 22
ENFILE = 23
EMFILE = 24
ENOSPC = 28
ESPIPE = 29
EROFS = 30
ENAMETOOLONG = 36
ENOTEMPTY = 39
EOPNOTSUPP = 95

_NAMES = {
    value: name
    for name, value in list(globals().items())
    if name.startswith("E") and isinstance(value, int)
}


class KernelError(OSError):
    """Raised by simulated syscalls; carries a POSIX errno."""

    def __init__(self, errno_value: int, message: str = ""):
        name = _NAMES.get(errno_value, str(errno_value))
        super().__init__(errno_value, f"[{name}] {message}" if message else name)
