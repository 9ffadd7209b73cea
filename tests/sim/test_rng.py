"""Tests for the deterministic RNG helper (Zipfian generator)."""

import random

import pytest

from repro.sim import zipf_ranks


def test_zipf_ranks_in_range():
    rng = random.Random(1)
    ranks = zipf_ranks(rng, n=100, count=5000)
    assert len(ranks) == 5000
    assert all(0 <= rank < 100 + 1 for rank in ranks)


def test_zipf_skew():
    """Rank 0 must dominate: with theta=0.99 the head of the distribution
    takes a large share."""
    rng = random.Random(2)
    ranks = zipf_ranks(rng, n=1000, count=20000)
    rank0_share = ranks.count(0) / len(ranks)
    uniform_share = 1 / 1000
    assert rank0_share > 20 * uniform_share


def test_zipf_theta_controls_skew():
    rng1, rng2 = random.Random(3), random.Random(3)
    heavy = zipf_ranks(rng1, 500, 10000, theta=0.99)
    light = zipf_ranks(rng2, 500, 10000, theta=0.5)
    assert heavy.count(0) > light.count(0)


def test_zipf_rejects_bad_n():
    with pytest.raises(ValueError):
        zipf_ranks(random.Random(0), 0, 10)
