"""Tests for the libc facades: passthrough and interposition."""

from repro.block import SsdDevice
from repro.core import Nvcache, NvcacheConfig, NvmmLog
from repro.fs import Ext4
from repro.kernel import Kernel, O_CREAT, O_RDWR, O_WRONLY, SEEK_SET
from repro.libc import Libc, NvcacheLibc
from repro.nvmm import NvmmDevice
from repro.sim import Environment
from repro.units import MIB

CFG = NvcacheConfig(log_entries=128, read_cache_pages=16, batch_min=2,
                    batch_max=16, fd_max=32, cleanup_idle_flush=0.01)


def plain_stack():
    env = Environment()
    kernel = Kernel(env)
    kernel.mount("/", Ext4(env, SsdDevice(env, size=128 * MIB)))
    return env, kernel, Libc(kernel)


def nvcache_stack():
    env = Environment()
    kernel = Kernel(env)
    kernel.mount("/", Ext4(env, SsdDevice(env, size=128 * MIB)))
    nvmm = NvmmDevice(env, size=NvmmLog.required_size(CFG))
    nvcache = Nvcache(env, kernel, nvmm, CFG)
    return env, kernel, nvcache, NvcacheLibc(nvcache)


def test_plain_libc_roundtrip():
    env, _kernel, libc = plain_stack()

    def body():
        fd = yield from libc.open("/f", O_CREAT | O_RDWR)
        yield from libc.write(fd, b"plain")
        yield from libc.lseek(fd, 0, SEEK_SET)
        data = yield from libc.read(fd, 5)
        yield from libc.close(fd)
        return data

    assert env.run_process(body()) == b"plain"


def test_apps_run_unmodified_on_both_libcs():
    """The legacy-compatibility claim: the same application code runs on
    stock libc and on NVCache's libc and produces identical results."""

    def application(libc):
        fd = yield from libc.open("/app.db", O_CREAT | O_RDWR)
        yield from libc.pwrite(fd, b"record-1|", 0)
        yield from libc.pwrite(fd, b"record-2|", 9)
        yield from libc.fsync(fd)
        st = yield from libc.fstat(fd)
        data = yield from libc.pread(fd, st.st_size, 0)
        yield from libc.close(fd)
        return data

    env1, _k1, plain = plain_stack()
    plain_result = env1.run_process(application(plain))
    env2, _k2, _nv, nvlibc = nvcache_stack()
    nv_result = env2.run_process(application(nvlibc))
    assert plain_result == nv_result == b"record-1|record-2|"


def test_nvcache_libc_routes_through_cache():
    env, _kernel, nvcache, libc = nvcache_stack()

    def body():
        fd = yield from libc.open("/f", O_CREAT | O_WRONLY)
        yield from libc.write(fd, b"via nvcache")

    env.run_process(body())
    assert nvcache.stats.writes == 1
    assert nvcache.log.is_committed(0)


def test_nvcache_libc_fsync_is_free():
    env, _kernel, nvcache, libc = nvcache_stack()

    def body():
        fd = yield from libc.open("/f", O_CREAT | O_WRONLY)
        yield from libc.write(fd, b"x" * 4096)
        start = env.now
        yield from libc.fsync(fd)
        return env.now - start

    assert env.run_process(body()) == 0.0
    assert nvcache.stats.fsyncs_ignored == 1


def test_plain_libc_fsync_costs_time():
    env, _kernel, libc = plain_stack()

    def body():
        fd = yield from libc.open("/f", O_CREAT | O_WRONLY)
        yield from libc.write(fd, b"x" * 4096)
        start = env.now
        yield from libc.fsync(fd)
        return env.now - start

    assert env.run_process(body()) > 1e-4  # journal commit + disk flush
