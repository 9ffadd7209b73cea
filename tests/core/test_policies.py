"""Unit tests for the pluggable eviction/promotion policies."""

import pytest

from repro.core import (POLICY_NAMES, AlruPolicy, LruPolicy, NhitPolicy,
                        make_policy)


def test_lru_victims_in_recency_order():
    policy = LruPolicy()
    for key in ("a", "b", "c"):
        policy.record_insert(key)
    policy.record_access("a")          # a is now most recent
    assert policy.victims(["a", "b", "c"]) == ["b", "c", "a"]


def test_untracked_keys_sort_before_any_tracked_key():
    policy = LruPolicy()
    policy.record_insert("seen")
    assert policy.victims(["seen", "ghost"]) == ["ghost", "seen"]


def test_record_evict_forgets_the_key():
    policy = LruPolicy()
    policy.record_insert("a")
    policy.record_insert("b")
    policy.record_evict("a")           # "a" becomes untracked again
    assert policy.victims(["a", "b"]) == ["a", "b"]


def test_alru_prefers_stale_entries_over_lru_order():
    policy = AlruPolicy(staleness=3)
    policy.record_insert("old")        # clock 1
    policy.record_insert("mid")        # clock 2
    for _ in range(4):                 # age the clock past staleness
        policy.record_access("hot")
    # "old" and "mid" are both stale; "hot" is fresh and gets a second
    # chance even though plain LRU would already allow evicting it last.
    assert policy.victims(["hot", "old", "mid"]) == ["old", "mid", "hot"]


def test_alru_degrades_to_lru_when_nothing_is_stale():
    policy = AlruPolicy(staleness=100)
    policy.record_insert("a")
    policy.record_insert("b")
    assert policy.victims(["b", "a"]) == ["a", "b"]


def test_nhit_admits_on_the_threshold_miss():
    policy = NhitPolicy(threshold=3)
    assert not policy.admit("k")       # miss 1
    assert not policy.admit("k")       # miss 2
    assert policy.admit("k")           # miss 3: admitted
    # Admission resets the touch count: a later one-shot miss is gated
    # again (the key was promoted, then evicted, then seen once).
    assert not policy.admit("k")


def test_nhit_window_bounds_the_touch_map():
    policy = NhitPolicy(threshold=2, window=2)
    policy.admit("a")
    policy.admit("b")
    policy.admit("c")                  # evicts "a"'s touch record
    assert not policy.admit("a")       # back to one touch, still gated
    assert policy.admit("c")           # "c" survived the window


def test_make_policy_catalog():
    assert make_policy("") is None
    assert make_policy("clock") is None
    assert isinstance(make_policy("lru"), LruPolicy)
    assert isinstance(make_policy("alru"), AlruPolicy)
    assert isinstance(make_policy("nhit"), NhitPolicy)
    # The factory builds each policy with its constructor defaults.
    assert make_policy("nhit").threshold == NhitPolicy().threshold == 2
    assert make_policy("alru").staleness == AlruPolicy().staleness == 64
    with pytest.raises(ValueError):
        make_policy("fifo")


def test_policy_names_match_the_factory():
    for name in POLICY_NAMES:
        assert make_policy(name).name == name


def test_constructor_validation():
    with pytest.raises(ValueError):
        AlruPolicy(staleness=0)
    with pytest.raises(ValueError):
        NhitPolicy(threshold=0)
    with pytest.raises(ValueError):
        NhitPolicy(window=0)
