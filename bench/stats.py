"""Nearest-rank percentiles and the rule for the tail a sample supports."""

from __future__ import annotations

import math
from typing import Sequence

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10

#: Candidate tail percentiles, lowest first.
TAILS = (0.90, 0.99, 0.999, 0.9999)


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence, ``0 < q <= 1``."""
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``."""
    return count - max(1, math.ceil(q * count - 1e-9))


def highest_supported_tail(count: int) -> float | None:
    """The highest percentile of ``TAILS`` with ``MIN_BEYOND`` samples beyond."""
    supported = [q for q in TAILS if samples_beyond(count, q) >= MIN_BEYOND]
    return supported[-1] if supported else None


def summarize(samples: Sequence[float]) -> dict[str, float | int | None]:
    """Median, the highest supported tail percentile and the sample count."""
    ordered = sorted(samples)
    tail = highest_supported_tail(len(ordered))
    return {
        "count": len(ordered),
        "p50": nearest_rank(ordered, 0.50),
        "tail_q": tail,
        "tail": nearest_rank(ordered, tail) if tail is not None else None,
    }
