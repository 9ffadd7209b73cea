"""Property tests on the circular log's ring discipline: arbitrary
interleavings of allocation, commit, and retirement must preserve the
head/tail invariants and never lose or duplicate a committed entry."""

import random
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HEADER_SIZE, NvcacheConfig, NvcacheStats, NvmmLog
from repro.nvmm import NvmmDevice
from repro.sim import Environment

CFG = NvcacheConfig(log_entries=16, entry_data_size=64, fd_max=8,
                    path_max=32, batch_min=1, batch_max=8)


def make_log():
    env = Environment()
    nvmm = NvmmDevice(env, size=NvmmLog.required_size(CFG))
    return env, nvmm, NvmmLog(env, nvmm, CFG, NvcacheStats())


@settings(max_examples=40, deadline=None)
@given(script=st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 3)),   # group size
        st.tuples(st.just("retire"), st.integers(1, 6)),  # batch size
    ),
    min_size=1, max_size=50))
def test_property_ring_discipline(script):
    env, _nvmm, log = make_log()
    committed_payloads = {}  # seq -> payload
    retired = set()

    def body():
        for action, amount in script:
            if action == "alloc":
                if log.used() + amount > log.entries:
                    continue  # would block; skip in this linear script
                leader = yield from log.next_entries(amount)
                for i in range(amount):
                    payload = bytes([(leader + i) % 251]) * 8
                    yield from log.fill_entry(
                        leader + i, 1, (leader + i) * 8, payload,
                        leader_seq=None if i == 0 else leader)
                    committed_payloads[leader + i] = payload
                yield from log.commit_leader(leader)
            else:  # retire
                count = min(amount, log.used())
                if count == 0:
                    continue
                batch = list(range(log.volatile_tail,
                                   log.volatile_tail + count))
                # Never split a group (mirror the cleanup thread's rule).
                while (batch[-1] + 1 < log.head
                       and log.read_header(batch[-1] + 1)[0] >= 2):
                    batch.append(batch[-1] + 1)
                if not all(log.is_committed(seq) for seq in batch):
                    continue
                yield from log.clear_entries(batch)
                log.advance_volatile_tail(batch[-1] + 1)
                retired.update(batch)

            # Invariants after every step:
            assert log.persistent_tail() <= log.volatile_tail <= log.head
            assert 0 <= log.used() <= log.entries
            # Retired slots are durably free until reused; live committed
            # entries still hold their payload.
            for seq in range(log.volatile_tail, log.head):
                if seq in committed_payloads and log.is_committed(seq):
                    assert log.read_data(seq) == committed_payloads[seq]
        return True

    assert env.run_process(body()) is True


@settings(max_examples=25, deadline=None)
@given(
    producer_groups=st.lists(st.integers(1, 3), min_size=5, max_size=25),
    consumer_batch=st.integers(1, 8),
    seed=st.integers(0, 1000),
)
def test_property_concurrent_producer_consumer(producer_groups,
                                               consumer_batch, seed):
    """A producer process and a retiring consumer process run
    concurrently; every produced entry is eventually retired exactly
    once and in order."""
    env, _nvmm, log = make_log()
    produced = []
    consumed = []

    def producer():
        for group in producer_groups:
            group = min(group, log.entries)
            leader = yield from log.next_entries(group)
            for i in range(group):
                yield from log.fill_entry(
                    leader + i, 2, i * 16, b"pp" * 8,
                    leader_seq=None if i == 0 else leader)
            yield from log.commit_leader(leader)
            produced.extend(range(leader, leader + group))
            yield env.timeout(1e-6)

    def consumer():
        total = sum(min(g, log.entries) for g in producer_groups)
        while len(consumed) < total:
            start = log.volatile_tail
            batch = []
            for seq in range(start, min(start + consumer_batch, log.head)):
                if not log.is_committed(seq):
                    break
                batch.append(seq)
            while (batch and batch[-1] + 1 < log.head
                   and log.read_header(batch[-1] + 1)[0] >= 2
                   and log.is_committed(batch[-1] + 1)):
                batch.append(batch[-1] + 1)
            if batch:
                yield from log.clear_entries(batch)
                log.advance_volatile_tail(batch[-1] + 1)
                consumed.extend(batch)
            else:
                yield env.timeout(1e-6)

    def main():
        p = env.spawn(producer(), name="producer")
        c = env.spawn(consumer(), name="consumer")
        yield p.join()
        yield c.join()
        return True

    assert env.run_process(main()) is True
    assert consumed == produced  # in order, exactly once
    assert log.used() == 0
    assert log.persistent_tail() == log.head


class ParentStoreSequence:
    """The log's fill / commit / clear spelled as separate device
    instructions: header store, payload store, and a load-unpack-pack-
    store of the whole header to flip the commit word. The reference the
    log's fewer, narrower stores must match line for line."""

    HEADER = struct.Struct("<QqqQ")

    def __init__(self, env, nvmm, geometry):
        self.env, self.nvmm, self.geometry = env, nvmm, geometry

    def fill(self, seq, fd, offset, data, leader_seq=None):
        addr = self.geometry._slot_addr(seq)
        commit_group = (0 if leader_seq is None
                        else leader_seq % self.geometry.entries + 2)
        self.nvmm.store(addr, self.HEADER.pack(commit_group, fd, offset, len(data)))
        self.nvmm.store(addr + HEADER_SIZE, data)
        self.nvmm.pwb_range(addr, HEADER_SIZE + len(data))

    def _set_word(self, addr, word):
        rest = self.HEADER.unpack(self.nvmm.load(addr, HEADER_SIZE))[1:]
        self.nvmm.store(addr, self.HEADER.pack(word, *rest))

    def commit(self, seq):
        addr = self.geometry._slot_addr(seq)
        self.nvmm.pfence()
        self._set_word(addr, 1)
        self.nvmm.pwb(addr)
        yield from self.nvmm.psync()

    def clear(self, seqs, tail):
        for seq in seqs:
            addr = self.geometry._slot_addr(seq)
            self._set_word(addr, 0)
            self.nvmm.pwb(addr)
            self.nvmm.pfence()
        self.nvmm.store(self.geometry.tail_base, struct.pack("<Q", tail))
        self.nvmm.pwb(self.geometry.tail_base)
        self.nvmm.pfence()


def assert_same_media(log_nvmm, ref_nvmm, rng):
    assert log_nvmm.persisted_view() == ref_nvmm.persisted_view()
    dirty = log_nvmm.dirty_lines()
    assert dirty == ref_nvmm.dirty_lines()
    keep = rng.sample(dirty, rng.randint(0, len(dirty)))
    assert (log_nvmm.crash_image(keep_lines=keep)
            == ref_nvmm.crash_image(keep_lines=keep))


@settings(max_examples=40, deadline=None)
@given(
    script=st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.lists(
                st.binary(max_size=CFG.entry_data_size), min_size=1, max_size=3)),
            st.tuples(st.just("retire"), st.integers(1, 6)),
        ),
        min_size=1, max_size=30),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_store_sequence_matches_parent_reference(script, seed):
    """Single-store fills and 8-byte commit/clear words leave the media,
    the dirty lines and every crash image exactly as the separate header
    and payload stores with whole-header rewrites did."""
    rng = random.Random(seed)
    env, nvmm, log = make_log()
    ref_env, ref_nvmm, geometry = make_log()
    ref = ParentStoreSequence(ref_env, ref_nvmm, geometry)

    for action, arg in script:
        if action == "write":
            if log.used() + len(arg) > log.entries:
                continue
            leader = env.run_process(log.next_entries(len(arg)))
            for i, payload in enumerate(arg):
                follower_of = None if i == 0 else leader
                env.run_process(log.fill_entry(
                    leader + i, 3, (leader + i) * 64, payload, follower_of))
                ref.fill(leader + i, 3, (leader + i) * 64, payload, follower_of)
                assert_same_media(nvmm, ref_nvmm, rng)
            env.run_process(log.commit_leader(leader))
            ref_env.run_process(ref.commit(leader))
            assert_same_media(nvmm, ref_nvmm, rng)
        else:
            count = min(arg, log.used())
            if count == 0:
                continue
            batch = list(range(log.volatile_tail, log.volatile_tail + count))
            while (batch[-1] + 1 < log.head
                   and log.read_header(batch[-1] + 1)[0] >= 2):
                batch.append(batch[-1] + 1)  # never split a group
            env.run_process(log.clear_entries(batch))
            log.advance_volatile_tail(batch[-1] + 1)
            ref.clear(batch, batch[-1] + 1)
            assert_same_media(nvmm, ref_nvmm, rng)
