"""Tests for the stack builder and the Table I / Table IV data."""

import pytest

from repro.harness import (
    PROPERTY_MATRIX,
    SYSTEM_NAMES,
    Scale,
    TABLE_IV,
    build_stack,
    nvcache_config,
)
from repro.kernel import O_CREAT, O_RDWR
from repro.nvmm import NvmmDevice
from repro.units import GIB, MIB

SMALL = Scale(4096)


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_every_stack_does_io(name):
    stack = build_stack(name, SMALL)

    def body():
        fd = yield from stack.libc.open("/probe", O_CREAT | O_RDWR)
        yield from stack.libc.pwrite(fd, b"probe-data", 0)
        yield from stack.libc.fsync(fd)
        data = yield from stack.libc.pread(fd, 10, 0)
        yield from stack.libc.close(fd)
        yield from stack.teardown()
        return data

    assert stack.env.run_process(body()) == b"probe-data"


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_the_only_nvmm_device_is_the_cache_log(name):
    """The paper puts one thing in NVMM, the cache's log: NOVA and
    Ext4-DAX are cost models over an ``NvmmTiming`` and build no device."""
    stack = build_stack(name, SMALL)
    reachable = list(stack.devices.values())
    for _mountpoint, filesystem in stack.kernel.vfs.mounts():
        reachable.extend(vars(filesystem).values())
    nvmm = [item for item in reachable if isinstance(item, NvmmDevice)]
    if stack.nvcache is None:
        assert nvmm == []
    else:
        assert len(nvmm) == 1 and nvmm[0] is stack.nvcache.nvmm
        assert nvmm[0].name == "pmem0"


def test_unknown_stack_rejected():
    with pytest.raises(ValueError):
        build_stack("zfs", SMALL)


def test_nvcache_stacks_have_nvcache():
    for name in SYSTEM_NAMES:
        stack = build_stack(name, SMALL)
        if name.startswith("nvcache"):
            assert stack.nvcache is not None
        else:
            assert stack.nvcache is None


def test_scale_arithmetic():
    scale = Scale(256)
    assert scale.of(256 * GIB) == 1 * GIB
    assert scale.nvcache_log_bytes == 64 * GIB // 256
    assert scale.dm_cache_bytes == 128 * GIB // 256
    # Tiny sizes clamp to a floor rather than reaching zero.
    assert Scale(10**9).of(1 * MIB) > 0


def test_nvcache_config_paper_defaults():
    config = nvcache_config(Scale(1))
    assert config.entry_data_size == 4096
    assert config.log_entries == 16 * 1024 * 1024  # paper: 16 M entries
    assert config.batch_min == 1000
    assert config.batch_max == 10000


def test_table1_matrix_shape():
    assert set(PROPERTY_MATRIX) == {
        "ext4-dax", "nova", "strata", "splitfs", "dm-writecache", "nvcache"}
    for row in PROPERTY_MATRIX.values():
        assert set(row) == {"large_storage", "sync_durability",
                            "durable_linearizability", "legacy_fs",
                            "stock_kernel", "legacy_kernel_api"}
    # The paper's headline: only NVCACHE has no '-' anywhere.
    flawless = [name for name, row in PROPERTY_MATRIX.items()
                if all(value.startswith("+") for value in row.values())]
    assert flawless == ["nvcache"]


def test_table4_covers_all_built_systems():
    assert set(TABLE_IV) == set(SYSTEM_NAMES)
    assert TABLE_IV["nvcache+ssd"]["sync_durability"] == "by default"
    assert TABLE_IV["tmpfs"]["sync_durability"] == "no"
    assert TABLE_IV["dm-writecache+ssd"]["durable_linearizability"] == "no"


def test_stack_settle_quiesces_nvcache():
    stack = build_stack("nvcache+ssd", SMALL)

    def body():
        fd = yield from stack.libc.open("/f", O_CREAT | O_RDWR)
        yield from stack.libc.pwrite(fd, b"x" * 4096, 0)
        yield from stack.settle()
        return stack.nvcache.log.used()

    assert stack.env.run_process(body()) == 0
