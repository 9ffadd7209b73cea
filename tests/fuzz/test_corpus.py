"""On-disk corpus format: round-trips, dedup-by-digest, lazy layout."""

import json
import os

from repro.fuzz import Corpus, FuzzCase, corpus_digest

CASE = FuzzCase(schedule=(("append", 0, 1, 107), ("fsync", 0)),
                crash_fracs=(0.4,), survivor_seed=3,
                fault_plan=(("tear", 5),))


def test_case_round_trips_under_its_digest(tmp_path):
    corpus = Corpus(str(tmp_path))
    digest = corpus.write_case(CASE, origin="seed:kvstore", new_edges=12)
    assert digest == CASE.digest()
    assert corpus.load_case(digest) == CASE
    [row] = corpus.load_cases()
    assert row["origin"] == "seed:kvstore"
    assert row["new_edges"] == 12


def test_rewriting_the_same_case_is_idempotent(tmp_path):
    corpus = Corpus(str(tmp_path))
    corpus.write_case(CASE, origin="seed:kvstore", new_edges=12)
    corpus.write_case(CASE, origin="seed:kvstore", new_edges=12)
    assert len(corpus.load_cases()) == 1


def test_files_are_canonical_json(tmp_path):
    corpus = Corpus(str(tmp_path))
    digest = corpus.write_case(CASE, origin="fresh", new_edges=0)
    path = tmp_path / "cases" / f"{digest}.json"
    text = path.read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    payload = json.loads(text)
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_read_only_access_never_creates_directories(tmp_path):
    root = tmp_path / "not-written-yet"
    corpus = Corpus(str(root))
    assert corpus.load_cases() == []
    assert corpus.load_findings() == []
    assert corpus.load_case("feedfacefeed") is None
    assert corpus.load_finding("feedfacefeed") is None
    assert not os.path.exists(root)


def test_finding_round_trips(tmp_path):
    corpus = Corpus(str(tmp_path))
    finding = {"digest": CASE.digest(), "case": CASE.to_fields(),
               "invariant": "durable_linearizability", "site": "core.log.filled",
               "variant": 0, "message": "boom"}
    corpus.write_finding(finding)
    assert corpus.load_finding(CASE.digest()) == finding
    assert corpus.load_findings() == [finding]


def test_corpus_digest_is_order_insensitive_and_content_sensitive():
    a = corpus_digest(["aaa", "bbb", "ccc"])
    assert corpus_digest(["ccc", "aaa", "bbb"]) == a
    assert corpus_digest(["aaa", "bbb"]) != a
    assert len(a) == 16
