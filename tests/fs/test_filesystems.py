"""Behavioural tests for each simulated filesystem."""

import pytest

from repro.block import RamDisk, SsdDevice
from repro.fs import DmWriteCache, Ext4, Ext4Dax, Nova, Tmpfs
from repro.harness.systems import SYSTEM_NAMES, Scale, build_stack
from repro.kernel import Kernel, KernelError, O_CREAT, O_DIRECT, O_RDONLY, O_RDWR, O_SYNC, O_WRONLY
from repro.kernel.errno import ENOSPC
from repro.nvmm import NvmmDevice
from repro.sim import Environment
from repro.units import MIB


@pytest.fixture
def env():
    return Environment()


def run(env, gen):
    return env.run_process(gen)


def make_kernel(env, fs):
    kernel = Kernel(env)
    kernel.mount("/", fs)
    return kernel


def write_read_roundtrip(env, fs):
    kernel = make_kernel(env, fs)

    def body():
        fd = yield from kernel.open("/f", O_CREAT | O_RDWR)
        payload = bytes(range(256)) * 64  # 16 KiB
        yield from kernel.write(fd, payload)
        yield from kernel.fsync(fd)
        data = yield from kernel.pread(fd, len(payload), 0)
        return payload, data

    payload, data = run(env, body())
    assert data == payload


def test_ext4_roundtrip(env):
    write_read_roundtrip(env, Ext4(env, SsdDevice(env, size=256 * MIB)))


def test_tmpfs_roundtrip(env):
    write_read_roundtrip(env, Tmpfs(env))


def test_nova_roundtrip(env):
    write_read_roundtrip(env, Nova(env, NvmmDevice(env, size=64 * MIB)))


def test_ext4dax_roundtrip(env):
    write_read_roundtrip(env, Ext4Dax(env, NvmmDevice(env, size=64 * MIB)))


def test_dm_writecache_roundtrip(env):
    ssd = SsdDevice(env, size=256 * MIB)
    dm = DmWriteCache(env, ssd, cache_size=16 * MIB)
    write_read_roundtrip(env, Ext4(env, dm))


# -- a shrink never resurrects bytes ------------------------------------------


def shrink_then_extend(env, libc):
    """pwrite a page, cut it to 100 bytes, grow the file past it again,
    read the first page back."""

    def body():
        fd = yield from libc.open("/f", O_CREAT | O_RDWR)
        yield from libc.pwrite(fd, b"A" * 4096, 0)
        yield from libc.ftruncate(fd, 100)
        yield from libc.pwrite(fd, b"B", 8192)
        data = yield from libc.pread(fd, 4096, 0)
        return data

    return env.run_process(body())


FILESYSTEMS = {
    "ext4": lambda env: Ext4(env, SsdDevice(env, size=256 * MIB)),
    "dm-writecache": lambda env: Ext4(env, DmWriteCache(
        env, SsdDevice(env, size=256 * MIB), cache_size=16 * MIB)),
    "ext4-dax": lambda env: Ext4Dax(env, NvmmDevice(env, size=64 * MIB)),
    "nova": lambda env: Nova(env, NvmmDevice(env, size=64 * MIB)),
    "tmpfs": Tmpfs,
}


@pytest.mark.parametrize("name", FILESYSTEMS)
def test_shrink_then_extend_reads_zeros_past_the_cut(env, name):
    """Ext4 masks the cut page's tail with its stale-tail watermark
    (fuzzer bug 8); the page-store filesystems zero it in ``truncate``.
    Same bytes either way — they used to return 3996 stale ``A``s."""
    kernel = make_kernel(env, FILESYSTEMS[name](env))
    assert shrink_then_extend(env, kernel) == b"A" * 100 + bytes(3996)


@pytest.mark.parametrize("system", SYSTEM_NAMES)
def test_shrink_then_extend_on_every_stack(system):
    stack = build_stack(system, Scale(2048))
    assert shrink_then_extend(stack.env, stack.libc) == b"A" * 100 + bytes(3996)


def test_page_store_truncate_frees_pages_and_keeps_the_head(env):
    fs = Nova(env, NvmmDevice(env, size=1 * MIB))
    kernel = make_kernel(env, fs)

    def body():
        fd = yield from kernel.open("/f", O_CREAT | O_RDWR)
        yield from kernel.pwrite(fd, b"x" * (3 * 4096), 0)
        yield from kernel.ftruncate(fd, 4096 + 10)
        head = yield from kernel.pread(fd, 8192, 0)
        used = fs.used_bytes()
        yield from kernel.unlink("/f")
        return head, used

    assert run(env, body()) == (b"x" * (4096 + 10), 2 * 4096)
    assert fs.used_bytes() == 0


# -- Ext4 specifics ---------------------------------------------------------


def test_ext4_enospc(env):
    tiny = RamDisk(env, size=2 * MIB)
    fs = Ext4(env, tiny, journal_size=1 * MIB)
    kernel = make_kernel(env, fs)

    def body():
        fd = yield from kernel.open("/big", O_CREAT | O_WRONLY | O_DIRECT)
        for i in range(1024):
            yield from kernel.pwrite(fd, b"x" * 4096, i * 4096)

    with pytest.raises(KernelError) as exc:
        run(env, body())
    assert exc.value.errno == ENOSPC


def test_ext4_unlink_frees_blocks(env):
    device = RamDisk(env, size=4 * MIB)
    fs = Ext4(env, device, journal_size=1 * MIB)
    kernel = make_kernel(env, fs)

    def cycle(name):
        fd = yield from kernel.open(name, O_CREAT | O_WRONLY | O_DIRECT)
        for i in range(256):
            yield from kernel.pwrite(fd, b"y" * 4096, i * 4096)
        yield from kernel.close(fd)
        yield from kernel.unlink(name)

    # Far more data than the device holds; must succeed thanks to reuse.
    for round_number in range(8):
        run(env, cycle(f"/file{round_number}"))


def test_ext4_commit_touches_journal_and_flushes(env):
    device = SsdDevice(env, size=64 * MIB)
    fs = Ext4(env, device)
    inode = fs.create("/f")

    def body():
        # An allocation makes metadata pending -> full journal commit.
        yield from fs.write_page(inode, 0, b"j" * 4096)
        yield from fs.commit()

    run(env, body())
    assert device.stats.writes == 2  # data page + journal record
    assert device.stats.flushes == 1


def test_ext4_commit_fdatasync_fast_path(env):
    """Without pending metadata, commit is just a device flush."""
    device = SsdDevice(env, size=64 * MIB)
    fs = Ext4(env, device)
    inode = fs.create("/f")

    def body():
        yield from fs.write_page(inode, 0, b"a" * 4096)
        yield from fs.commit()
        # Overwrite in place: no allocation, no journal record.
        yield from fs.write_page(inode, 0, b"b" * 4096)
        yield from fs.commit()

    run(env, body())
    # writes: data, journal, data (no second journal record)
    assert device.stats.writes == 3
    assert device.stats.flushes == 2


def test_ext4_sequential_allocation_is_contiguous(env):
    device = SsdDevice(env, size=64 * MIB)
    fs = Ext4(env, device)
    inode = fs.create("/seq")

    def body():
        for i in range(8):
            yield from fs.write_page(inode, i, b"s" * 4096)

    run(env, body())
    blocks = inode.private["blocks"]
    offsets = [blocks[i] for i in range(8)]
    assert offsets == list(range(offsets[0], offsets[0] + 8))


# -- tmpfs specifics ---------------------------------------------------------


def test_tmpfs_crash_loses_everything(env):
    fs = Tmpfs(env)
    kernel = make_kernel(env, fs)

    def body():
        fd = yield from kernel.open("/f", O_CREAT | O_WRONLY)
        yield from kernel.write(fd, b"volatile")
        yield from kernel.fsync(fd)  # fsync cannot save tmpfs data

    run(env, body())
    fs.crash()
    assert fs.lookup("/f") is None


def test_tmpfs_is_fastest(env):
    def timed(fs):
        k_env = fs.env
        kernel = make_kernel(k_env, fs)

        def body():
            fd = yield from kernel.open("/f", O_CREAT | O_WRONLY | O_SYNC)
            start = k_env.now
            for i in range(50):
                yield from kernel.pwrite(fd, b"t" * 4096, i * 4096)
            return k_env.now - start

        return k_env.run_process(body())

    env_a, env_b = Environment(), Environment()
    tmpfs_time = timed(Tmpfs(env_a))
    ext4_time = timed(Ext4(env_b, SsdDevice(env_b, size=64 * MIB)))
    assert tmpfs_time < ext4_time / 10


# -- NVMM filesystems ------------------------------------------------------------


def test_nova_capacity_limit(env):
    """Table I: NOVA cannot store more than the NVMM size."""
    fs = Nova(env, NvmmDevice(env, size=1 * MIB))
    kernel = make_kernel(env, fs)

    def body():
        fd = yield from kernel.open("/big", O_CREAT | O_WRONLY)
        for i in range(512):
            yield from kernel.pwrite(fd, b"n" * 4096, i * 4096)

    with pytest.raises(KernelError) as exc:
        run(env, body())
    assert exc.value.errno == ENOSPC


def test_nova_overwrite_does_not_leak_capacity(env):
    fs = Nova(env, NvmmDevice(env, size=1 * MIB))
    kernel = make_kernel(env, fs)

    def body():
        fd = yield from kernel.open("/f", O_CREAT | O_WRONLY)
        for _ in range(600):  # overwrites the same page: no new allocation
            yield from kernel.pwrite(fd, b"o" * 4096, 0)

    run(env, body())
    assert fs.used_bytes() == 4096


def test_nova_write_durable_without_fsync(env):
    """NOVA (cow_data) provides synchronous durability by default."""
    fs = Nova(env, NvmmDevice(env, size=16 * MIB))
    kernel = make_kernel(env, fs)

    def body():
        fd = yield from kernel.open("/f", O_CREAT | O_WRONLY)
        yield from kernel.write(fd, b"durable-no-fsync")

    run(env, body())
    kernel.crash()  # page cache gone; NOVA data unaffected

    def check():
        fd = yield from kernel.open("/f", O_RDONLY)
        data = yield from kernel.read(fd, 100)
        return data

    assert run(env, check()) == b"durable-no-fsync"


def test_ext4dax_capacity_limit(env):
    fs = Ext4Dax(env, NvmmDevice(env, size=1 * MIB))
    kernel = make_kernel(env, fs)

    def body():
        fd = yield from kernel.open("/big", O_CREAT | O_WRONLY)
        for i in range(512):
            yield from kernel.pwrite(fd, b"d" * 4096, i * 4096)

    with pytest.raises(KernelError) as exc:
        run(env, body())
    assert exc.value.errno == ENOSPC


def test_nova_faster_than_ext4dax_for_sync_writes():
    """Paper Fig 4: NOVA ~403 MiB/s vs Ext4-DAX ~137 MiB/s."""

    def timed(make_fs):
        env = Environment()
        fs = make_fs(env)
        kernel = Kernel(env)
        kernel.mount("/", fs)

        def body():
            fd = yield from kernel.open("/f", O_CREAT | O_WRONLY | O_SYNC)
            start = env.now
            for i in range(200):
                yield from kernel.pwrite(fd, b"z" * 4096, i * 4096)
            return 200 * 4096 / (env.now - start)

        return env.run_process(body())

    nova_rate = timed(lambda e: Nova(e, NvmmDevice(e, size=64 * MIB)))
    dax_rate = timed(lambda e: Ext4Dax(e, NvmmDevice(e, size=64 * MIB)))
    assert nova_rate > 1.8 * dax_rate


# -- dm-writecache specifics --------------------------------------------------------


def test_dm_writecache_absorbs_writes_fast(env):
    ssd = SsdDevice(env, size=256 * MIB)
    dm = DmWriteCache(env, ssd, cache_size=64 * MIB)

    def body():
        start = env.now
        for i in range(100):
            yield from dm.write(i * 4096, b"c" * 4096)
            yield from dm.flush()
        return 100 * 4096 / (env.now - start)

    rate = run(env, body())
    # Far faster than the raw SSD's sync write rate (~15 MiB/s).
    assert rate > 100 * MIB


def test_dm_writecache_read_through_origin(env):
    ssd = SsdDevice(env, size=64 * MIB)
    dm = DmWriteCache(env, ssd, cache_size=8 * MIB)

    def body():
        yield from ssd.write(40960, b"origin-data")
        yield from ssd.flush()
        data = yield from dm.read(40960, 11)
        return data

    assert run(env, body()) == b"origin-data"


def test_dm_writecache_writeback_drains_to_origin(env):
    ssd = SsdDevice(env, size=256 * MIB)
    dm = DmWriteCache(env, ssd, cache_size=1 * MIB, high_watermark=0.3,
                      low_watermark=0.1)

    def body():
        for i in range(200):
            yield from dm.write(i * 4096, b"w" * 4096)
        # Allow the writeback daemon to run.
        yield env.timeout(2.0)
        return ssd.stats.writes

    assert run(env, body()) > 0


def test_dm_writecache_survives_crash(env):
    """dm-writecache data in NVMM persists across power loss (but data
    still in the kernel page cache above it does not — see Table IV)."""
    ssd = SsdDevice(env, size=64 * MIB)
    dm = DmWriteCache(env, ssd, cache_size=8 * MIB)

    def body():
        yield from dm.write(0, b"persisted-in-nvmm")
        yield from dm.flush()

    run(env, body())
    dm.crash()

    def check():
        data = yield from dm.read(0, 17)
        return data

    assert run(env, check()) == b"persisted-in-nvmm"
