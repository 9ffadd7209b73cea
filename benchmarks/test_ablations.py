"""Ablations beyond the paper's figures: the design choices DESIGN.md
calls out, each isolated with a controlled experiment.

- commit-protocol ablation: what durable linearizability (the psync per
  commit) costs on the write path;
- entry-size ablation: the fixed-entry-size system parameter (§II-D).
"""

import pytest

from repro.block import SsdDevice
from repro.core import Nvcache, NvcacheConfig, NvmmLog
from repro.fs import Ext4
from repro.kernel import Kernel
from repro.nvmm import NvmmDevice, NvmmTiming
from repro.sim import Environment
from repro.units import GIB, KIB, MIB
from repro.workloads import FioJob, run_fio

from .conftest import run_once


def test_ablation_commit_protocol_cost(benchmark):
    """Durable linearizability costs one psync per write: measure it by
    comparing against an NVMM with free flushes (hypothetical hardware)."""

    def experiment():
        def run_with_timing(timing):
            env = Environment()
            kernel = Kernel(env)
            kernel.mount("/", Ext4(env, SsdDevice(env, size=8 * GIB)))
            config = NvcacheConfig(log_entries=32768, read_cache_pages=256,
                                   batch_min=100, batch_max=1000)
            nvmm = NvmmDevice(env, size=NvmmLog.required_size(config),
                              timing=timing)
            nvcache = Nvcache(env, kernel, nvmm, config)
            from repro.libc import NvcacheLibc
            job = FioJob(rw="randwrite", block_size=4 * KIB, size=8 * MIB,
                         file_size=8 * MIB, fsync=1)
            result = run_fio(env, NvcacheLibc(nvcache), job,
                             settle=lambda: nvcache.drain())
            return result.mean_write_latency

        real = run_with_timing(NvmmTiming())
        free_flush = run_with_timing(NvmmTiming(flush_base_latency=0.0,
                                                per_line_flush=0.0))
        return real, free_flush

    real, free_flush = run_once(benchmark, experiment)
    psync_cost = real - free_flush
    print(f"\nwrite latency: {real * 1e6:.2f} us with psync, "
          f"{free_flush * 1e6:.2f} us without -> commit protocol costs "
          f"{psync_cost * 1e6:.2f} us/write")
    assert 0 < psync_cost < real * 0.6  # real but not dominant


def test_ablation_entry_size(benchmark):
    """Fixed entry size (paper §II-D): smaller entries waste flushes per
    byte for 4 KiB writes; larger entries waste log capacity."""

    def experiment():
        rates = {}
        for entry_size in (1 * KIB, 4 * KIB, 16 * KIB):
            env = Environment()
            kernel = Kernel(env)
            kernel.mount("/", Ext4(env, SsdDevice(env, size=8 * GIB)))
            config = NvcacheConfig(entry_data_size=entry_size,
                                   log_entries=32768,
                                   read_cache_pages=256,
                                   batch_min=100, batch_max=1000)
            nvmm = NvmmDevice(env, size=NvmmLog.required_size(config))
            nvcache = Nvcache(env, kernel, nvmm, config)
            from repro.libc import NvcacheLibc
            job = FioJob(rw="randwrite", block_size=4 * KIB, size=8 * MIB,
                         file_size=8 * MIB, fsync=1)
            result = run_fio(env, NvcacheLibc(nvcache), job,
                             settle=lambda: nvcache.drain())
            rates[entry_size] = result.write_bandwidth
        return rates

    rates = run_once(benchmark, experiment)
    print("\n4 KiB-write throughput by entry size: "
          + ", ".join(f"{k // KIB}KiB={v / MIB:.1f} MiB/s"
                      for k, v in rates.items()))
    # 1 KiB entries need 4-entry groups per write: measurably slower.
    assert rates[4 * KIB] > rates[1 * KIB]
    # 16 KiB entries buy nothing for 4 KiB writes.
    assert rates[16 * KIB] == pytest.approx(rates[4 * KIB], rel=0.25)
