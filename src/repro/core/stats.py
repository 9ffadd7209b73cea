"""Runtime counters exposed by a cache instance."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(slots=True)
class CacheStats:
    """The counters every cache mode keeps; a mode's stats class adds
    its own and a ``hit_rate``."""

    writes: int = 0
    bytes_written: int = 0
    reads: int = 0
    bytes_read: int = 0
    evictions: int = 0
    fsyncs_ignored: int = 0
    read_only_bypass: int = 0

    def as_dict(self) -> Dict[str, float]:
        data = {name: getattr(self, name) for name in self.__dataclass_fields__}
        data["hit_rate"] = self.hit_rate()
        return data


@dataclass(slots=True)
class NvcacheStats(CacheStats):
    """Counters the evaluation section reads off (hit rates, dirty misses,
    batches, log-full stalls)."""

    read_hits: int = 0
    read_misses: int = 0
    dirty_misses: int = 0
    dirty_miss_entries_applied: int = 0
    entries_created: int = 0
    group_writes: int = 0          # writes needing more than one entry
    log_full_waits: int = 0
    eviction_second_chances: int = 0
    cleanup_batches: int = 0
    cleanup_entries: int = 0
    cleanup_fsyncs: int = 0
    cleanup_batch_aborts: int = 0  # batches rolled back on device I/O errors

    def hit_rate(self) -> float:
        total = self.read_hits + self.read_misses
        return self.read_hits / total if total else 0.0
