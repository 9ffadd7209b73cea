"""The crash judge on hand-built cases: a recovered state is the
oracle's *before* or its *after*, and a second recovery does nothing.
Each failing path gets one message saying whether acknowledged state was
lost or the in-flight op was half-applied."""

import pytest

from repro.faults import CrashCase, CrashPoint, OracleOp, judge

OLD = b"\x01" * 1024                  # acknowledged before the crash
NEW = b"\x02" * 1024                  # the in-flight pwrite's payload
GROUP = OracleOp("pwrite", path="/f", offset=1024, data=NEW)


def crash_case(before, after, state, inflight=None, state2=None,
               applied2=0):
    return CrashCase(point=CrashPoint(7, "nvmm.psync", "seq 3", 0.5),
                     variant="drop-all", keep_lines=(), before=before,
                     after=after, inflight=inflight, state=state,
                     state2=state if state2 is None else state2,
                     applied2=applied2)


def verdict(case):
    return [(v.invariant, v.message) for v in judge(case)]


@pytest.mark.parametrize("side", ["before", "after"])
def test_either_legal_side_passes(side):
    before, after = {"/f": OLD}, {"/f": OLD + NEW}
    state = before if side == "before" else after
    assert judge(crash_case(before, after, dict(state), GROUP)) == []


def test_lost_ack_with_nothing_in_flight():
    before = {"/f": b"ABCD", "/g": b""}
    [(name, message)] = verdict(crash_case(before, dict(before),
                                           {"/f": b"AB", "/g": b""}))
    assert name == "durable_linearizability"
    assert message.startswith("/f: acknowledged state lost at byte 2")


@pytest.mark.parametrize("inflight", [None, OracleOp("pwrite", path="/f",
                                                     data=NEW)])
def test_vanished_file_loses_acknowledged_state(inflight):
    """No pwrite removes a file, even one in flight at offset 0."""
    before = {"/f": b""}
    after = {"/f": NEW} if inflight else dict(before)
    [(_, message)] = verdict(crash_case(before, after, {"/f": None},
                                        inflight))
    assert "acknowledged state lost at byte 0" in message
    assert "recovered <absent>" in message


def test_earlier_ack_lost_under_an_inflight_pwrite():
    """The file comes back empty while the pwrite in flight writes at
    +1024: bytes 0-1024 were acknowledged earlier, so this is a lost ack,
    not a torn group."""
    [(name, message)] = verdict(crash_case({"/f": OLD}, {"/f": OLD + NEW},
                                           {"/f": b""}, GROUP))
    assert name == "durable_linearizability"
    assert "acknowledged state lost at byte 0" in message
    assert "half-applied" not in message


def test_partial_inflight_pwrite_is_half_applied():
    state = {"/f": OLD + NEW[:512]}
    [(name, message)] = verdict(crash_case({"/f": OLD}, {"/f": OLD + NEW},
                                           state, GROUP))
    assert name == "durable_linearizability"
    assert message.startswith("/f: in-flight (pwrite /f+1024:1024) "
                              "half-applied")


def test_inflight_pwrite_leaves_other_paths_to_the_acks():
    before = {"/f": OLD, "/g": b"keep"}
    after = {"/f": OLD + NEW, "/g": b"keep"}
    [(_, message)] = verdict(crash_case(before, after,
                                        {"/f": OLD + NEW, "/g": b"kee"},
                                        GROUP))
    assert message.startswith("/g: acknowledged state lost at byte 3")


def test_rename_with_each_path_legal_but_mixed():
    """Both names hold the bytes: ``/a`` matches *before* and ``/b``
    matches *after*, so each path is legal alone and the combination is
    not."""
    rename = OracleOp("rename", path="/a", path2="/b")
    before = {"/a": b"x", "/b": None}
    after = {"/a": None, "/b": b"x"}
    [(name, message)] = verdict(crash_case(before, after,
                                           {"/a": b"x", "/b": b"x"}, rename))
    assert name == "durable_linearizability"
    assert "mixes the before- and after-sides" in message


def test_half_applied_namespace_op():
    truncate = OracleOp("ftruncate", path="/f", size=2)
    [(_, message)] = verdict(crash_case({"/f": b"ABCD"}, {"/f": b"AB"},
                                        {"/f": b"ABC"}, truncate))
    assert "in-flight (ftruncate /f to 2) half-applied" in message


def test_second_recovery_that_reapplies_work():
    before = {"/f": OLD}
    case = crash_case(before, dict(before), dict(before),
                      state2={"/f": OLD + NEW}, applied2=2)
    assert verdict(case) == [
        ("recovery_idempotence", "second recovery re-applied work: 2 "
                                 "entries, 0 namespace ops (log not emptied)"),
        ("recovery_idempotence", "second recovery changed file state on "
                                 "['/f']"),
    ]


def test_a_violation_names_its_case_without_holding_it():
    case = crash_case({"/f": b"A"}, {"/f": b"A"}, {"/f": b""})
    case.violations = judge(case)
    [violation] = case.violations
    assert not case.ok
    assert violation.where == case.describe()
    assert str(violation).endswith(f"at {case.describe()}")
