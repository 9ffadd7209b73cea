"""``NvmmLog.pending_removal`` against the ring scan it replaced.

The log answers "does a committed, uncleared entry remove this path?"
from a volatile counter that an unlink or rename-away entry enters when
its commit word is stored and leaves when ``clear_entries`` frees it.
The reference is the scan of every live slot's header and payload.
They must agree at every crash point (so between an entry's fill and
its commit, too) and after every step of random namespace and write
sequences, before a power cut and on the log built over the recovered
image.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Nvcache, NvcacheConfig, recover
from repro.core.log import COMMIT_FREE, OP_RENAME, OP_UNLINK
from repro.faults import power_cut
from repro.kernel import O_CREAT, O_RDWR, KernelError

from .test_recovery import fresh_stack

#: A small ring, so long sequences wrap it and reuse slots.
CFG = NvcacheConfig(log_entries=16, entry_data_size=512, read_cache_pages=16,
                    batch_min=1, batch_max=8, fd_max=32, path_max=64,
                    cleanup_idle_flush=0.01, page_size=4096)
PATHS = ("/a", "/b", "/c")


def ring_scan(log, path: str) -> bool:
    encoded = path.encode("utf-8")
    for seq in range(min(log.persistent_tail(), log.volatile_tail), log.head):
        commit_group, fd, _offset, size = log.read_header(seq)
        if commit_group == COMMIT_FREE or fd not in (OP_UNLINK, OP_RENAME):
            continue
        data = log.read_data(seq, size)
        if fd == OP_UNLINK:
            if data == encoded:
                return True
        elif data.split(b"\x00", 1)[0] == encoded:
            return True
    return False


class AgreementProbe:
    """A crash-point recorder that checks the two answers at every hit."""

    def __init__(self, log):
        self.log = log
        self.hits = 0

    def hit(self, _site: str, _label: str = "") -> None:
        self.hits += 1
        assert_agree(self.log)


def assert_agree(log) -> None:
    for path in PATHS:
        assert log.pending_removal(path) == ring_scan(log, path), path


def run_steps(env, nv, steps) -> None:
    def body():
        for kind, path, other in steps:
            try:
                if kind == "create":
                    fd = yield from nv.open(path, O_CREAT | O_RDWR)
                    yield from nv.pwrite(fd, b"x" * 100, 0)
                    yield from nv.close(fd)
                elif kind == "write":
                    fd = yield from nv.open(path, O_RDWR)
                    yield from nv.pwrite(fd, b"y" * 600, 50)
                    yield from nv.close(fd)
                elif kind == "unlink":
                    yield from nv.unlink(path)
                elif kind == "rename":
                    yield from nv.rename(path, other)
                else:
                    assert kind == "idle"
                    yield env.timeout(0.05)  # the cleanup thread clears
            except KernelError:
                pass  # ENOENT and friends: the logged entry still counts
            assert_agree(nv.log)

    env.crash_points = AgreementProbe(nv.log)
    env.run_process(body())


def crash_and_reopen(env, kernel, ssd, nvmm):
    """Power cut, recovery, and a fresh cache over the recovered image."""
    env2, kernel2, nvmm2 = power_cut(kernel, [ssd], nvmm)
    env2.run_process(recover(env2, kernel2, nvmm2, CFG))
    return env2, Nvcache(env2, kernel2, nvmm2, CFG)


step = st.tuples(st.sampled_from(["create", "create", "write", "unlink",
                                  "rename", "idle"]),
                 st.sampled_from(PATHS), st.sampled_from(PATHS))


@settings(max_examples=40, deadline=None)
@given(before=st.lists(step, max_size=20), after=st.lists(step, max_size=20))
def test_counter_matches_ring_scan_across_a_crash(before, after):
    env, kernel, ssd, nvmm, nv = fresh_stack(config=CFG)
    run_steps(env, nv, before)
    env2, nv2 = crash_and_reopen(env, kernel, ssd, nvmm)
    assert_agree(nv2.log)
    run_steps(env2, nv2, after)


def test_counter_follows_commit_and_clear():
    """A removal counts from its commit to its clear, and a recreation
    in between logs its creation."""
    env, _kernel, _ssd, _nvmm, nv = fresh_stack(config=CFG, start_cleanup=False)
    run_steps(env, nv, [("create", "/a", "/a"), ("rename", "/a", "/b"),
                        ("unlink", "/b", "/b"), ("create", "/a", "/a")])
    log = nv.log
    assert (log.pending_removal("/a"), log.pending_removal("/b")) == (True, True)
    assert env.crash_points.hits > 0
    nv.cleanup.start()
    run_steps(env, nv, [("idle", "/a", "/a")])
    assert log.used() == 0
    assert not log._removals and not log._removal_paths
