"""Order statistics used by every workload."""

from __future__ import annotations

import statistics
from typing import Sequence


def nearest_rank(samples: Sequence[float], percent: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``percent``% of all samples at or below it.

    ``percent`` is an integer in 1..100, so the rank ``ceil(p * n / 100)`` is
    computed exactly, without float rounding at the boundaries.
    """

    if not samples:
        raise ValueError("percentile of an empty sample")
    if isinstance(percent, bool) or not isinstance(percent, int):
        raise TypeError(f"percent must be an int, got {percent!r}")
    if not 1 <= percent <= 100:
        raise ValueError(f"percent must be in 1..100, got {percent}")
    ordered = sorted(samples)
    rank = -(-percent * len(ordered) // 100)  # ceil without floats
    return ordered[rank - 1]


def beyond(count: int, percent: int) -> int:
    """How many of ``count`` samples lie strictly above the nearest-rank
    ``percent``-th percentile's position."""

    return count - (-(-percent * count // 100))


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))
