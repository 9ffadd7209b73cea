"""Unit tests for fd allocation, open-file descriptions, and errno."""

import pytest

from repro.kernel import (
    FdTable,
    KernelError,
    O_APPEND,
    O_DIRECT,
    O_RDONLY,
    O_RDWR,
    O_SYNC,
    O_WRONLY,
    OpenFile,
)
from repro.kernel.errno import EBADF, EMFILE, ENOENT
from repro.kernel.inode import Inode, S_IFDIR, S_IFREG, stat_of


def make_open_file(flags=O_RDONLY):
    return OpenFile(inode=Inode(number=1), filesystem=None, path="/x",
                    flags=flags)


def test_lowest_free_fd_allocation():
    table = FdTable()
    fds = [table.allocate(make_open_file()) for _ in range(3)]
    assert fds == [3, 4, 5]  # 0-2 reserved
    table.release(4)
    assert table.allocate(make_open_file()) == 4  # lowest free reused


def test_get_unknown_fd_raises_ebadf():
    table = FdTable()
    with pytest.raises(KernelError) as exc:
        table.get(7)
    assert exc.value.errno == EBADF


def test_release_unknown_fd_raises():
    table = FdTable()
    with pytest.raises(KernelError):
        table.release(3)


def test_lookup_returns_none_for_missing():
    table = FdTable()
    assert table.lookup(3) is None


def test_table_exhaustion_raises_emfile():
    table = FdTable(max_fds=6)
    for _ in range(3):
        table.allocate(make_open_file())
    with pytest.raises(KernelError) as exc:
        table.allocate(make_open_file())
    assert exc.value.errno == EMFILE


def test_open_fds_and_len():
    table = FdTable()
    table.allocate(make_open_file())
    table.allocate(make_open_file())
    assert len(table) == 2
    assert sorted(table.open_fds()) == [3, 4]


def test_open_file_mode_predicates():
    readonly = make_open_file(O_RDONLY)
    assert readonly.readable and not readonly.writable
    writeonly = make_open_file(O_WRONLY)
    assert writeonly.writable and not writeonly.readable
    readwrite = make_open_file(O_RDWR)
    assert readwrite.readable and readwrite.writable


def test_open_file_flag_predicates():
    flagged = make_open_file(O_WRONLY | O_APPEND | O_DIRECT | O_SYNC)
    assert flagged.append and flagged.direct and flagged.sync
    plain = make_open_file(O_WRONLY)
    assert not (plain.append or plain.direct or plain.sync)


def test_kernel_error_message_carries_name():
    error = KernelError(ENOENT, "/missing/file")
    assert error.errno == ENOENT
    assert "ENOENT" in str(error)
    assert "/missing/file" in str(error)


def test_inode_kind_predicates():
    regular = Inode(number=1, mode=S_IFREG | 0o644)
    directory = Inode(number=2, mode=S_IFDIR | 0o755)
    assert regular.is_regular and not regular.is_dir
    assert directory.is_dir and not directory.is_regular


def test_stat_of_copies_fields():
    inode = Inode(number=9, size=1234, device_id=5)
    st = stat_of(inode)
    assert st.st_ino == 9
    assert st.st_size == 1234
    assert st.st_dev == 5
    inode.size = 9999  # Stat is a frozen snapshot
    assert st.st_size == 1234
