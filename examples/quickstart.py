#!/usr/bin/env python3
"""Quickstart: build a simulated machine, put NVCache in front of an
Ext4-on-SSD stack, write durably at NVMM speed, then crash the machine
and watch recovery replay the log.

Run with::

    python examples/quickstart.py
"""

from repro.block import SsdDevice
from repro.core import Nvcache, NvcacheConfig, NvmmLog, recover
from repro.faults import power_cut
from repro.fs import Ext4
from repro.kernel import Kernel, O_CREAT, O_RDONLY, O_RDWR
from repro.nvmm import NvmmDevice
from repro.sim import Environment
from repro.units import MIB, fmt_time


def main():
    # -- 1. Build the machine -------------------------------------------------
    env = Environment()
    ssd = SsdDevice(env, size=1024 * MIB)
    kernel = Kernel(env)
    kernel.mount("/", Ext4(env, ssd))

    # A small NVCache: 4 MiB log, 1000-entry batches are overkill here.
    config = NvcacheConfig(log_entries=1024, read_cache_pages=256,
                           batch_min=16, batch_max=128)
    nvmm = NvmmDevice(env, size=NvmmLog.required_size(config))
    nvcache = Nvcache(env, kernel, nvmm, config)

    # -- 2. Write durably without a single syscall on the hot path ------------
    def workload():
        fd = yield from nvcache.open("/hello.db", O_CREAT | O_RDWR)
        start = env.now
        for i in range(100):
            yield from nvcache.pwrite(fd, f"record-{i:04d};".encode(), i * 12)
        write_time = env.now - start
        # fsync costs nothing: every write is already durable in NVMM.
        yield from nvcache.fsync(fd)
        data = yield from nvcache.pread(fd, 24, 0)
        print(f"100 durable writes took {fmt_time(write_time)} "
              f"({write_time / 100 * 1e6:.1f} us each)")
        print(f"read-your-writes: {data!r}")
        print(f"SSD writes so far: {ssd.stats.writes} "
              f"(everything still in the NVMM log)")
        return fd

    fd = env.run_process(workload())

    # -- 3. Pull the plug and reboot ------------------------------------------
    # The page cache, the fd table and the SSD's volatile cache vanish; the
    # NVMM keeps what was persisted. The reboot remounts the same Ext4
    # object on a fresh kernel (its metadata stands in for a journal
    # replay) and rebuilds the NVMM from its crash image.
    env2, kernel2, nvmm2 = power_cut(kernel, [ssd], nvmm)
    print("\n*** power failure ***\n")

    # -- 4. Recover ------------------------------------------------------------
    report = env2.run_process(recover(env2, kernel2, nvmm2, config))
    print(f"recovery: {report.files_reopened} file(s) reopened, "
          f"{report.entries_applied} entries replayed "
          f"({report.bytes_replayed} bytes)")

    def verify():
        fd = yield from kernel2.open("/hello.db", O_RDONLY)
        data = yield from kernel2.pread(fd, 24, 0)
        return data

    data = env2.run_process(verify())
    print(f"after recovery the kernel sees: {data!r}")
    assert data == b"record-0000;record-0001;"[:24]
    print("\nquickstart OK")


if __name__ == "__main__":
    main()
