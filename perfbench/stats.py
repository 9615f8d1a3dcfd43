"""Order statistics the benchmark reports: medians, spreads and tails.

Percentiles use the nearest-rank definition on sorted samples, in
integer arithmetic, so a sample count at a band edge picks the same
percentile on every platform.
"""

from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles in tenths of a percent, highest first.  The
#: ladder stops at p95: in a 20-second serving run p99 rests on the dozen
#: slowest of ~1,400 batches, which host noise alone moves by a fifth.
TAIL_LADDER_PERMILLE = (950, 900, 750, 500)

#: Samples that must lie beyond a percentile for it to count as the tail.
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    """Median of a non-empty sequence."""
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def median_or_zero(values) -> float:
    """Median, or 0 when a layer saw no samples in this workload."""
    values = list(values)
    return median(values) if values else 0.0


def iqr_share(values) -> float:
    """Quartile distance as a share of the median (``statistics.quantiles``)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf


def rank_of(permille: int, count: int) -> int:
    """1-based nearest rank of the ``permille``/1000 quantile of ``count``."""
    return max(1, -(-permille * count // 1000))


def tail_permille(count: int) -> int:
    """The highest ladder percentile with at least ten samples beyond it.

    Below twenty samples not even the median has ten beyond it; the tail
    then falls back to the median, and the sample count reported beside
    it tells the reader so.
    """
    for permille in TAIL_LADDER_PERMILLE:
        if count - rank_of(permille, count) >= TAIL_MIN_BEYOND:
            return permille
    return TAIL_LADDER_PERMILLE[-1]


def percentile(sorted_values, permille: int) -> float:
    """Nearest-rank percentile of already sorted samples."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return float(sorted_values[rank_of(permille, len(sorted_values)) - 1])


def latency_summary(samples) -> dict:
    """``p50``, ``tail``, the tail's percentile and the sample count.

    Failed requests enter as ``math.inf``: they count as samples and sit
    beyond every finite latency, so failures push the tail up.
    """
    ordered = sorted(samples)
    if not ordered:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    permille = tail_permille(len(ordered))
    return {
        "p50": percentile(ordered, 500),
        "tail": percentile(ordered, permille),
        "tail_pct": permille / 10,
        "n": len(ordered),
    }
