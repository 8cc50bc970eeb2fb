"""The percentile helper reports a tail only with ten samples beyond it."""

import pytest

from percentiles import (
    MIN_BEYOND,
    UnsupportedPercentile,
    check_supported,
    median,
    percentile,
    samples_beyond,
)


def test_p99_needs_ten_samples_beyond_it():
    with pytest.raises(UnsupportedPercentile, match="10 samples beyond"):
        percentile(range(999), 0.99)
    assert samples_beyond(999, 0.99) == MIN_BEYOND - 1
    assert samples_beyond(1000, 0.99) == MIN_BEYOND
    assert percentile(range(1, 1001), 0.99) == 990.0


def test_small_samples_refuse_every_tail_but_keep_the_median():
    values = [5.0, 1.0, 3.0]
    assert median(values) == 3.0
    assert percentile(values, 0.5) == 3.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    for q in (0.75, 0.9, 0.99):
        with pytest.raises(UnsupportedPercentile):
            percentile(values, q)
    with pytest.raises(UnsupportedPercentile):
        median([])


def test_tail_support_tracks_the_sample_size():
    check_supported(100, 0.9)
    with pytest.raises(UnsupportedPercentile):
        check_supported(99, 0.9)
    with pytest.raises(ValueError):
        check_supported(100, 1.5)

