"""nvlog-lite: the NVMM write log without the DRAM read cache.

An ablation point between the paper's full NVCache and a bare kernel:
writes commit into the NVMM log exactly as in logging mode (same
durability-after-ack, same recovery), but reads bypass the user-space
DRAM page cache entirely — a read first drains the file's pending log
entries to the backend, then serves from the kernel page cache. This
isolates how much of NVCache's win is the *log* (cheap durable writes)
versus the *read cache* (DRAM hits), and gives the policy lab a
baseline whose read path has no policy at all.

Select it with ``build_stack(cache_mode="nvlog-lite")``; everything
else (crash explorer, recovery, libc facade) is inherited unchanged
from :class:`~repro.core.nvcache.Nvcache`.
"""

from __future__ import annotations

from typing import Generator

from .nvcache import Nvcache


class NvlogLite(Nvcache):
    """Nvcache with the DRAM read cache switched off.

    Only the read path differs: instead of loading pages into the read
    cache (and running the dirty-miss merge against pending log
    entries), a read waits for the cleanup thread to retire the file's
    pending entries and then reads through the kernel — the page cache
    is authoritative once the log is drained.
    """

    def pread(self, fd: int, nbytes: int, offset: int) -> Generator:
        handle = self._handle(fd, "reading", offset, nbytes)
        nv_file = handle.file
        self.stats.reads += 1
        if offset >= nv_file.size:
            yield self.env.timeout(0.0)
            return b""
        nbytes = min(nbytes, nv_file.size - offset)
        began = self.env.now
        tracer = self.env.tracer
        if nv_file.pending_entries > 0:
            # Read-your-writes without a DRAM cache: the log must reach
            # the backend first. This is the design's read penalty.
            yield self.cleanup.request_drain()
        self.stats.read_misses += 1
        if self.env.qos is not None:
            self.env.qos.tally_miss()
        token = None
        if tracer is not None:
            token = tracer.begin(self.env, "core", "read_miss", fd=fd)
        try:
            data = yield from self.kernel.pread(fd, nbytes, offset)
            yield self.env.delay(self.config.read_miss_overhead,
                                 "core", "read_overhead")
        finally:
            if token is not None:
                tracer.end(self.env, token)
        self._account_read(len(data), began)
        return data
