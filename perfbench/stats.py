"""Exact statistics on raw samples, and the machine speed score."""

from __future__ import annotations

import math
import time

__all__ = ["nearest_rank", "geomean", "median", "speed_score"]


def nearest_rank(values, q: float) -> float:
    """The smallest sample with at least a fraction ``q`` of the samples
    at or below it.  Always one of the samples, so it lies in
    [min, max] and never decreases as ``q`` grows."""
    if not values:
        raise ValueError("nearest_rank of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speed_score() -> dict:
    """Time a fixed NumPy + pure-Python loop (best of three).

    Recorded next to every result so numbers from different machines can
    be read side by side; it never rescales a reported metric.  The score
    is 1 / seconds, so a faster machine scores higher.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((160, 160)).astype(np.float32)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        b = a
        for _ in range(200):
            b = np.tanh(b @ a) + a
        total = 0
        for i in range(800_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return {"loop_s": best, "score": 1.0 / best}
