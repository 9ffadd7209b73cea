"""The NVCache circular write log in NVMM (paper §II-B, §III).

On-media layout (all offsets fixed, so recovery finds everything):

    fd_table        fd_max * path_max bytes   (path of each open fd)
    persistent_tail u64                        (oldest live entry, seq number)
    entries         log_entries * stride

Each fixed-size entry is::

    u64 commit_group   # see encoding below
    i64 fd
    i64 offset
    u64 size           # payload bytes used (<= entry_data_size)
    u8  data[entry_data_size]

``commit_group`` packs the commit flag and the group index into one word
(paper §II-D: saves a cache miss and allows independent commits):

- ``0``       — free slot, or an allocated-but-uncommitted leader;
- ``1``       — committed leader (single-entry write, or head of a group);
- ``slot+2``  — follower entry whose leader lives at ring index ``slot``.

Followers are filled and flushed *before* the leader commits, so a single
flush of the leader's commit word atomically commits the whole group.

Indices: the volatile ``head`` and ``volatile_tail`` are monotonically
increasing sequence numbers (slot = seq % N). The *persistent* tail in
NVMM trails the volatile tail: an entry is reusable in volatile memory
only once its slot is durably cleared (paper's three-step cleanup).
"""

from __future__ import annotations

import struct
from collections import Counter
from typing import Dict, Generator, List, Optional, Tuple

from ..nvmm import NvmmDevice, RegionAllocator, read_cstring, write_cstring
from ..nvmm.layout import align_up
from ..sim import Environment, Waitable
from ..units import CACHE_LINE_SIZE, US
from .config import NvcacheConfig
from .stats import NvcacheStats

_HEADER = struct.Struct("<QqqQ")
HEADER_SIZE = _HEADER.size  # 32 bytes
_WORD = struct.Struct("<Q")  # the commit word; also the persistent tail

COMMIT_FREE = 0
COMMIT_LEADER = 1
FOLLOWER_BASE = 2

_FREE_WORD = _WORD.pack(COMMIT_FREE)
_LEADER_WORD = _WORD.pack(COMMIT_LEADER)

# Namespace operations logged for recovery ordering (an extension over
# the paper, which only logs data writes: without these, a crash between
# an unlink/truncate and the retirement of older write entries could
# resurrect deleted data — e.g. a rollback journal). Encoded in the fd
# field; payload carries the path(s).
OP_UNLINK = -2
OP_TRUNCATE = -3   # offset = new size
OP_RENAME = -4     # payload = old + b"\0" + new
OP_CREATE = -5     # file created by open(O_CREAT); payload = path.
#                    Creations must be logged too: recovery replays the
#                    namespace history strictly in log order, and an
#                    unlogged recreation after an unlink still in the
#                    log would be undone by the unlink's replay (the
#                    crash explorer caught this on the MiniRocks WAL
#                    rotation pattern — see docs/CRASH_TESTING.md).
_REMOVAL_OPS = (OP_UNLINK, OP_RENAME)


class NvmmLog:
    """The persistent circular log plus its volatile indices."""

    __slots__ = ("env", "nvmm", "config", "stats", "entries", "stride",
                 "fd_table_base", "tail_base", "entries_base", "head",
                 "volatile_tail", "_space_waiters", "_registered_fds",
                 "_fd_set_authoritative", "_slot_mirror", "_removal_paths",
                 "_removals")

    def __init__(self, env: Environment, nvmm: NvmmDevice, config: NvcacheConfig,
                 stats: Optional[NvcacheStats] = None, base: int = 0):
        self.env = env
        self.nvmm = nvmm
        self.config = config
        self.stats = stats or NvcacheStats()
        self.entries = config.log_entries
        self.stride = align_up(HEADER_SIZE + config.entry_data_size,
                               CACHE_LINE_SIZE)

        allocator = RegionAllocator(nvmm, base=base)
        self.fd_table_base = allocator.allocate(
            "fd_table", config.fd_max * config.path_max)
        self.tail_base = allocator.allocate("persistent_tail", 8)
        self.entries_base = allocator.allocate(
            "entries", self.entries * self.stride)

        # Volatile indices (not needed for recovery; paper §II-B).
        self.head = 0
        self.volatile_tail = 0
        self._space_waiters: List[Waitable] = []
        # Volatile mirror of the occupied fd-table slots, so all_paths()
        # does not scan fd_max * path_max bytes of NVMM on every call.
        # Not authoritative until seeded: a log constructed over a
        # recovered image has registrations this process never saw, so
        # the first all_paths() performs the full scan once.
        self._registered_fds: set = set()
        self._fd_set_authoritative = False
        # Volatile per-slot mirror of ``(seq, commit_group)`` as last
        # written by *this* process, so the cleanup thread's commit
        # checks skip the NVMM read entirely. Same trust model as
        # ``_registered_fds``: a slot this process never wrote (a log
        # built over a recovered image) reads ``None`` here and falls
        # back to the media — the mirror is an index, never a substitute
        # source of truth.
        self._slot_mirror: List[Optional[Tuple[int, int]]] = [None] * self.entries
        # Volatile count of the paths that committed, not yet cleared
        # removal entries (unlink, rename away) name, so a creating open
        # asks a dict instead of reading the ring; ``_removal_paths``
        # holds each filled removal entry's path, by seq, until its
        # clear. There is nothing to seed from the media: head and
        # volatile tail start at 0, so the live range
        # ``[min(persistent tail, volatile tail), head)`` holds only
        # entries this process filled (and recovery empties the ring).
        self._removal_paths: Dict[int, bytes] = {}
        self._removals: Counter = Counter()

    # -- geometry ----------------------------------------------------------

    @classmethod
    def required_size(cls, config: NvcacheConfig, base: int = 0) -> int:
        """NVMM bytes needed for this log geometry."""
        line = CACHE_LINE_SIZE
        stride = align_up(HEADER_SIZE + config.entry_data_size, line)
        size = align_up(base, line)
        size += align_up(config.fd_max * config.path_max, line)
        size = align_up(size, line) + line  # tail
        size = align_up(size, line) + config.log_entries * stride
        return size + line

    def _slot_addr(self, seq: int) -> int:
        return self.entries_base + (seq % self.entries) * self.stride

    def used(self) -> int:
        return self.head - self.volatile_tail

    # -- writer side ---------------------------------------------------------

    def next_entries(self, count: int) -> Generator:
        """Advance the head by ``count``; waits while the log lacks room
        (paper Alg. 1, ``next_entry``). A multi-entry write allocates its
        group contiguously so the cleanup thread can retire groups
        atomically (never leaving the persistent tail inside a group).
        Returns the first sequence number."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if count > self.entries:
            raise ValueError(
                f"write needs {count} entries but the log only has "
                f"{self.entries}; enlarge the log or the entry size")
        # Multi-tenant QoS gate (repro.core.qos): tenant quotas and
        # per-class caps admit BEFORE the global log-full wait, so one
        # tenant's burst parks on its own quota instead of filling the
        # shared ring. Yields nothing when unattached/unbound/unconstrained.
        qos = self.env.qos
        if qos is not None:
            yield from qos.admit(count)
        first_wait = True
        wait_began = self.env.now
        while self.used() + count > self.entries:
            if first_wait:
                self.stats.log_full_waits += 1
                first_wait = False
            waiter = Waitable(self.env)
            self._space_waiters.append(waiter)
            yield waiter
        if not first_wait and self.env.tracer is not None:
            self.env.tracer.charge(self.env, "core", "log_full_wait",
                                   self.env.now - wait_began)
        seq = self.head
        self.head += count
        self.stats.entries_created += count
        if qos is not None:
            qos.note_alloc(seq, count)
        return seq

    def next_entry(self) -> Generator:
        return self.next_entries(1)

    def fill_entry(self, seq: int, fd: int, offset: int, data: bytes,
                   leader_seq: Optional[int] = None) -> Generator:
        """Populate an entry without committing it — header and payload
        in one store — and flush it to the persistence domain (everything
        except the final commit+psync)."""
        if len(data) > self.config.entry_data_size:
            raise ValueError(
                f"entry payload {len(data)} exceeds {self.config.entry_data_size}")
        addr = self._slot_addr(seq)
        if leader_seq is None:
            commit_group = COMMIT_FREE  # leader: committed later
        else:
            commit_group = (leader_seq % self.entries) + FOLLOWER_BASE
        self.nvmm.store(
            addr, _HEADER.pack(commit_group, fd, offset, len(data)) + data)
        self._slot_mirror[seq % self.entries] = (seq, commit_group)
        if fd < 0 and fd in _REMOVAL_OPS:
            # An unlink's payload is its path; a rename's is old\0new.
            self._removal_paths[seq] = data.split(b"\x00", 1)[0]
        self.nvmm.pwb_range(addr, HEADER_SIZE + len(data))
        recorder = self.env.crash_points
        if recorder is not None:
            recorder.hit("core.log.entry_filled", f"seq {seq} fd {fd}")
        # Bandwidth cost of moving payload+header towards NVMM.
        yield self.env.delay(
            self.nvmm.timing.store_cost(HEADER_SIZE + len(data)),
            "nvmm", "store")

    def commit_leader(self, seq: int) -> Generator:
        """pfence (order entries before commit), set the leader's commit
        word (an 8-byte store; the fill wrote the rest of the header),
        flush it, and psync for durable linearizability."""
        addr = self._slot_addr(seq)
        self.nvmm.pfence()
        self.nvmm.store(addr, _LEADER_WORD)
        self._slot_mirror[seq % self.entries] = (seq, COMMIT_LEADER)
        removed = self._removal_paths.get(seq)
        if removed is not None:
            self._removals[removed] += 1
        self.nvmm.pwb(addr)
        recorder = self.env.crash_points
        if recorder is not None:
            # The commit-flag flip: stored + enqueued, not yet fenced. A
            # crash here may or may not surface the commit word — both
            # outcomes must recover to a legal state.
            recorder.hit("core.log.commit_word", f"seq {seq}")
        yield from self.nvmm.psync()
        recorder = self.env.crash_points
        if recorder is not None:
            # Post-psync: the write is acknowledged as durable from here
            # on — durable-after-ack starts binding at this boundary.
            recorder.hit("core.log.committed", f"seq {seq}")

    # -- reader side (cleanup thread, dirty miss, recovery) ---------------------

    def read_header(self, seq: int) -> Tuple[int, int, int, int]:
        """(commit_group, fd, offset, size) of the entry at ``seq``."""
        return _HEADER.unpack(self.nvmm.load(self._slot_addr(seq), HEADER_SIZE))

    def read_data(self, seq: int, size: Optional[int] = None) -> bytes:
        if size is None:
            size = self.read_header(seq)[3]
        return self.nvmm.load(self._slot_addr(seq) + HEADER_SIZE, size)

    def timed_read_entry(self, seq: int) -> Generator:
        """Timed load of (fd, offset, data) — used by the cleanup thread."""
        commit_group, fd, offset, size = self.read_header(seq)
        data = yield from self.nvmm.timed_load(
            self._slot_addr(seq) + HEADER_SIZE, size)
        return commit_group, fd, offset, data

    def timed_read_range(self, seq: int, data_offset: int, length: int) -> Generator:
        """Timed load of a slice of an entry's payload (dirty-miss path)."""
        addr = self._slot_addr(seq) + HEADER_SIZE + data_offset
        return self.nvmm.timed_load(addr, length)

    def pending_removal(self, path: str) -> bool:
        """True while the ring still holds a committed namespace entry
        that removes ``path`` — an unlink, or a rename away from it. A
        file recreated under such a path must log its creation
        (OP_CREATE) so recovery replays the full namespace history in
        order; without the pending removal, replay's lazy ``O_CREAT``
        recreation is enough."""
        return path.encode("utf-8") in self._removals

    def commit_group_of(self, seq: int) -> int:
        """The entry's commit word, served from the volatile slot mirror
        when this process wrote the slot, from NVMM otherwise."""
        record = self._slot_mirror[seq % self.entries]
        if record is not None and record[0] == seq:
            return record[1]
        return self.read_header(seq)[0]

    def is_committed(self, seq: int) -> bool:
        """True when this entry's write is durably committed: a committed
        leader, or a follower whose leader slot is committed. Answered
        from the slot mirror when possible — the cleanup thread polls
        this on every batch scan."""
        commit_group = self.commit_group_of(seq)
        if commit_group == COMMIT_LEADER:
            return True
        if commit_group >= FOLLOWER_BASE:
            leader_slot = commit_group - FOLLOWER_BASE
            leader_record = self._slot_mirror[leader_slot]
            if leader_record is not None:
                return leader_record[1] == COMMIT_LEADER
            leader_addr = self.entries_base + leader_slot * self.stride
            leader_word = _HEADER.unpack(self.nvmm.load(leader_addr, HEADER_SIZE))[0]
            return leader_word == COMMIT_LEADER
        return False

    # -- cleanup: the three-step free protocol (paper §III) ---------------------------

    def clear_entries(self, seqs) -> Generator:
        """Step 2: durably clear commit words front-to-back and advance
        the persistent tail, then pfence so step 3 (reuse) is safe.

        The clears are fenced one entry at a time, in log order: the
        words a crash leaves still-committed are then always a *suffix*
        of the batch, and replaying a suffix of fully-propagated entries
        (plus everything after them) in order is sound. Fencing the whole
        batch at once would let an arbitrary subset of the clears reach
        the media — e.g. a stale truncate surviving while the writes that
        followed it were cleared — which replay cannot order around. The
        tail goes last so it never passes a still-committed word (the
        scan maps slots to sequence numbers modulo the ring, so a stale
        committed word beyond the tail would be misread as a future
        entry)."""
        new_tail = self.volatile_tail
        for seq in seqs:
            addr = self._slot_addr(seq)
            self.nvmm.store(addr, _FREE_WORD)
            self._slot_mirror[seq % self.entries] = (seq, COMMIT_FREE)
            removed = self._removal_paths.pop(seq, None)
            if removed is not None:
                left = self._removals[removed] - 1
                if left:
                    self._removals[removed] = left
                else:
                    del self._removals[removed]
            self.nvmm.pwb(addr)
            self.nvmm.pfence()
            new_tail = max(new_tail, seq + 1)
        self.nvmm.store(self.tail_base, _WORD.pack(new_tail))
        self.nvmm.pwb(self.tail_base)
        self.nvmm.pfence()
        recorder = self.env.crash_points
        if recorder is not None:
            recorder.hit("core.log.cleared", f"tail {new_tail}")
        yield self.env.delay(0.2 * US, "core", "retire")

    def advance_volatile_tail(self, new_tail: int) -> None:
        """Step 3: make the slots reusable and wake blocked writers."""
        if new_tail < self.volatile_tail or new_tail > self.head:
            raise ValueError(
                f"tail {new_tail} outside [{self.volatile_tail}, {self.head}]")
        self.volatile_tail = new_tail
        waiters, self._space_waiters = self._space_waiters, []
        for waiter in waiters:
            waiter._fire(None)

    def persistent_tail(self) -> int:
        return _WORD.unpack(self.nvmm.load(self.tail_base, 8))[0]

    # -- fd table ----------------------------------------------------------------------

    def _fd_addr(self, fd: int) -> int:
        if fd < 0 or fd >= self.config.fd_max:
            raise ValueError(f"fd {fd} outside table of {self.config.fd_max}")
        return self.fd_table_base + fd * self.config.path_max

    def set_path(self, fd: int, path: str) -> Generator:
        """Durably record fd -> path (needed only by recovery)."""
        addr = self._fd_addr(fd)
        write_cstring(self.nvmm, addr, path, self.config.path_max)
        self.nvmm.pwb_range(addr, self.config.path_max)
        self._registered_fds.add(fd)
        yield from self.nvmm.psync()

    def clear_path(self, fd: int) -> Generator:
        addr = self._fd_addr(fd)
        self.nvmm.store(addr, b"\x00")
        self.nvmm.pwb(addr)
        self._registered_fds.discard(fd)
        yield from self.nvmm.psync()

    def get_path(self, fd: int) -> str:
        return read_cstring(self.nvmm, self._fd_addr(fd), self.config.path_max)

    def all_paths(self) -> dict:
        """fd -> path for every registered descriptor.

        Served from the volatile registered-fd set once it is known to
        cover the media. Until then — i.e. the first call on a log built
        over a pre-existing image, as recovery does — the fd table is
        scanned in full and the set seeded from it.
        """
        if not self._fd_set_authoritative:
            for fd in range(self.config.fd_max):
                if self.get_path(fd):
                    self._registered_fds.add(fd)
            self._fd_set_authoritative = True
        result = {}
        for fd in sorted(self._registered_fds):
            path = self.get_path(fd)
            if path:
                result[fd] = path
        return result
