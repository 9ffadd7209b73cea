"""NVCache (DSN 2021) reproduction.

Top-level package layout:

- :mod:`repro.sim` -- discrete-event simulation kernel.
- :mod:`repro.nvmm` -- byte-addressable NVMM device with cache-line
  persistence semantics (``pwb``/``pfence``/``psync``) and crash simulation.
- :mod:`repro.block` -- the SSD latency model.
- :mod:`repro.kernel` -- simulated POSIX kernel: VFS, page cache, syscalls.
- :mod:`repro.fs` -- Ext4, Ext4-DAX, NOVA, tmpfs, DM-WriteCache.
- :mod:`repro.libc` -- the libc facade handed to legacy applications.
- :mod:`repro.core` -- NVCache itself: persistent circular write log,
  user-space read cache, cleanup thread, recovery.
- :mod:`repro.apps` -- legacy applications (LSM key-value store, B-tree DB).
- :mod:`repro.workloads` -- FIO and db_bench workload generators.
- :mod:`repro.harness` -- the seven evaluated stacks and per-figure
  experiment drivers.
- :mod:`repro.obs` -- unified observability: metrics registry, latency
  histograms, simulated-time sampler, Prometheus/JSON exporters
  (reference: docs/OBSERVABILITY.md).
"""

__version__ = "1.0.0"
