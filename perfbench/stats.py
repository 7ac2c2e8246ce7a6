"""Order statistics for per-task latencies.

Percentiles use the nearest-rank rule on the sorted samples: percentile q is
the sample at 1-based rank ceil(q * n / 100).  The tail percentile is the
highest whole percentile that still has at least ``TAIL_BEYOND`` samples
strictly above its rank, so a tail figure always rests on that many samples.
"""
from __future__ import annotations

import math

TAIL_BEYOND = 10


def nearest_rank(values, q: float):
    """Percentile ``q`` (0 < q <= 100) of ``values`` by the nearest-rank rule.

    Returns (value, 0-based index into the sorted samples)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    idx = max(1, math.ceil(q * len(ordered) / 100.0)) - 1
    return ordered[idx], idx


def tail_percentile(values, beyond: int = TAIL_BEYOND):
    """Highest whole percentile with at least ``beyond`` samples above it.

    Returns (percentile, value, sample count).  Raises ValueError when there
    are too few samples for any percentile to have ``beyond`` samples above.
    """
    n = len(values)
    q = (100 * (n - beyond)) // n if n else 0
    # Integer rounding of ceil(q * n / 100) can land one rank too high.
    while q >= 1 and n - math.ceil(q * n / 100) < beyond:
        q -= 1
    if q < 1:
        raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
    value, _ = nearest_rank(values, q)
    return q, value, n
