"""Deterministic random-number helpers for workload generators."""

from __future__ import annotations

import random
from typing import List


def zipf_ranks(rng: random.Random, n: int, count: int, theta: float = 0.99) -> List[int]:
    """Draw ``count`` ranks in [0, n) following a Zipfian distribution.

    Uses the classic YCSB rejection-free inverse-CDF approximation, which is
    good enough for skewed key-popularity workloads.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    zetan = sum(1.0 / (i ** theta) for i in range(1, n + 1))
    alpha = 1.0 / (1.0 - theta)
    eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - (1.0 / zetan) * (1.0 + 0.5 ** theta))
    results = []
    for _ in range(count):
        u = rng.random()
        uz = u * zetan
        if uz < 1.0:
            results.append(0)
        elif uz < 1.0 + 0.5 ** theta:
            results.append(1)
        else:
            results.append(int(n * ((eta * u) - eta + 1.0) ** alpha))
    return results

