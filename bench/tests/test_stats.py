"""The percentile rule: a median, and the highest supported tail."""

from bench.stats import (
    highest_supported_tail,
    nearest_rank,
    samples_beyond,
    summarize,
)


def test_nearest_rank() -> None:
    ordered = list(range(1, 101))
    assert nearest_rank(ordered, 0.50) == 50
    assert nearest_rank(ordered, 0.99) == 99
    assert nearest_rank(ordered, 1.0) == 100
    assert nearest_rank([7.0], 0.99) == 7.0


def test_tail_needs_ten_samples_beyond() -> None:
    assert samples_beyond(1000, 0.99) == 10
    assert highest_supported_tail(99) is None  # p90 would leave 9 beyond
    assert highest_supported_tail(100) == 0.90
    assert highest_supported_tail(999) == 0.90
    assert highest_supported_tail(1000) == 0.99
    assert highest_supported_tail(10_000) == 0.999


def test_summary_reports_the_sample_count() -> None:
    summary = summarize([float(i) for i in range(1, 2001)])
    assert summary == {"count": 2000, "p50": 1000.0, "tail_q": 0.99, "tail": 1980.0}
    assert summarize([1.0, 2.0, 3.0])["tail"] is None
