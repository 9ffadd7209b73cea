"""Unit tests for path normalization and the mount table."""

import pytest

from repro.fs import Ext4, Tmpfs
from repro.block import SsdDevice
from repro.kernel import KernelError, Vfs, normalize
from repro.sim import Environment
from repro.units import MIB


def test_normalize_basic():
    assert normalize("/a/b/c") == "/a/b/c"
    assert normalize("a/b") == "/a/b"
    assert normalize("/a//b/") == "/a/b"
    assert normalize("/a/./b") == "/a/b"
    assert normalize("/a/b/../c") == "/a/c"
    assert normalize("/") == "/"
    assert normalize("/../..") == "/"


def _two_fs():
    env = Environment()
    root = Ext4(env, SsdDevice(env, size=256 * MIB))
    mnt = Tmpfs(env)
    vfs = Vfs()
    vfs.mount("/", root)
    vfs.mount("/mnt/tmp", mnt)
    return vfs, root, mnt


def test_resolve_prefers_longest_mount():
    vfs, root, mnt = _two_fs()
    fs, rel = vfs.resolve("/mnt/tmp/file")
    assert fs is mnt
    assert rel == "/file"
    fs, rel = vfs.resolve("/mnt/other/file")
    assert fs is root
    assert rel == "/mnt/other/file"


def test_resolve_mountpoint_itself():
    vfs, _root, mnt = _two_fs()
    fs, rel = vfs.resolve("/mnt/tmp")
    assert fs is mnt
    assert rel == "/"


def test_double_mount_rejected():
    vfs, root, _ = _two_fs()
    with pytest.raises(KernelError):
        vfs.mount("/mnt/tmp", root)


def test_resolve_without_root_mount_fails():
    vfs = Vfs()
    with pytest.raises(KernelError):
        vfs.resolve("/anything")
