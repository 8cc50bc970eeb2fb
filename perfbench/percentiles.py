"""Percentiles that refuse tails the sample cannot support.

A tail percentile (anything above the median) is reported only when at
least :data:`MIN_BEYOND` samples lie beyond it; below that, the value is
decided by a handful of outliers and moves from run to run for no reason
the program controls.  The median is always reported.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

#: Samples that must lie beyond a tail percentile for it to be reported.
MIN_BEYOND = 10


class UnsupportedPercentile(ValueError):
    """The sample is too small for the requested tail percentile."""


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* samples lie above the nearest-rank q-quantile."""
    return count - max(1, math.ceil(q * count))


def check_supported(count: int, q: float) -> None:
    """Raise :class:`UnsupportedPercentile` unless the sample supports *q*."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile fraction must be in [0, 1], got {q!r}")
    if count < 1:
        raise UnsupportedPercentile("no samples")
    if q > 0.5 and samples_beyond(count, q) < MIN_BEYOND:
        raise UnsupportedPercentile(
            f"p{100 * q:g} needs at least {MIN_BEYOND} samples beyond it; "
            f"{count} samples leave {samples_beyond(count, q)}"
        )


def percentile(values: Sequence[float] | np.ndarray, q: float) -> float:
    """Nearest-rank q-quantile of *values*, refusing unsupported tails."""
    ordered = np.sort(np.asarray(values, dtype=float))
    check_supported(ordered.size, q)
    return float(ordered[max(1, math.ceil(q * ordered.size)) - 1])


def median(values: Sequence[float] | np.ndarray) -> float:
    """The median (mean of the middle pair for an even count)."""
    ordered = np.sort(np.asarray(values, dtype=float))
    if ordered.size == 0:
        raise UnsupportedPercentile("no samples")
    middle = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[middle])
    return float(0.5 * (ordered[middle - 1] + ordered[middle]))

