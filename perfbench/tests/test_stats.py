"""The tail-percentile rule and the order statistics behind the metrics."""

import math

import pytest

from perfbench.stats import (
    iqr_share,
    latency_summary,
    median_or_zero,
    percentile,
    tail_permille,
)


@pytest.mark.parametrize(
    ("count", "permille"),
    [
        (1, 500),
        (19, 500),  # not even the median has ten beyond: fall back to it
        (20, 500),  # exactly ten beyond the median
        (39, 500),
        (40, 750),
        (99, 750),
        (100, 900),
        (199, 900),
        (200, 950),
        (1_000_000, 950),  # the ladder stops at p95
    ],
)
def test_tail_percentile_at_sample_count_edges(count, permille):
    assert tail_permille(count) == permille


@pytest.mark.parametrize("count", [20, 40, 100, 200, 1_000, 10_000])
def test_tail_leaves_at_least_ten_samples_beyond(count):
    samples = sorted(range(count))
    tail = percentile(samples, tail_permille(count))
    assert sum(1 for value in samples if value > tail) >= 10


def test_percentile_is_nearest_rank():
    samples = [10, 20, 30, 40]
    assert percentile(samples, 500) == 20
    assert percentile(samples, 750) == 30
    assert percentile(samples, 950) == 40


def test_latency_summary_counts_failures_beyond_every_latency():
    samples = [0.001 * value for value in range(1, 100)] + [math.inf] * 11
    summary = latency_summary(samples)
    assert summary["n"] == 110
    assert summary["tail_pct"] == 90.0
    assert summary["tail"] == pytest.approx(0.099)
    assert summary["p50"] == pytest.approx(0.055)


def test_latency_summary_of_nothing_reads_zero():
    assert latency_summary([]) == {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    assert median_or_zero([]) == 0.0


def test_iqr_share_matches_statistics_quantiles():
    values = [9.0, 10.0, 10.0, 11.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9]
    share = iqr_share(values)
    assert 0 < share < 0.1
    assert iqr_share([5.0]) == 0.0
