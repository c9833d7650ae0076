"""Order statistics: medians and central intervals.

Section 3 of the paper argues that means and coefficients of variation of
workload attributes are dominated by the extreme tail — removing the 0.1%
'taily' jobs can change the average by 5% and the CV by 40% — so all analyses
use *order moments*: the median and the 90% interval (difference between the
95th and 5th percentiles).  These helpers implement exactly those statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_1d, check_probability

__all__ = [
    "percentile",
    "median",
    "interval",
    "interval90",
    "interval50",
    "summary_order_stats",
]


def percentile(x, q: float) -> float:
    """The *q*-quantile (``0 <= q <= 1``) of the data, linear interpolation."""
    arr = check_1d(x, "x", min_len=1)
    check_probability(q, "q")
    return float(np.quantile(arr, q))


def median(x) -> float:
    """Sample median."""
    return percentile(x, 0.5)


def interval(x, coverage: float = 0.9) -> float:
    """Width of the central *coverage* interval of the sample.

    ``interval(x, 0.9)`` is the paper's "90% interval": the difference
    between the 95th and 5th percentiles.
    """
    arr = check_1d(x, "x", min_len=1)
    check_probability(coverage, "coverage")
    tail = (1.0 - coverage) / 2.0
    lo, hi = np.quantile(arr, [tail, 1.0 - tail])
    return float(hi - lo)


def interval90(x) -> float:
    """The 90% interval (95th minus 5th percentile)."""
    return interval(x, 0.9)


def interval50(x) -> float:
    """The 50% interval (inter-quartile range); the paper reports it "gave
    virtually the same results" as the 90% interval."""
    return interval(x, 0.5)


@dataclass(frozen=True)
class OrderStats:
    """Median and interval of a sample, the paper's per-variable summary."""

    median: float
    interval: float
    coverage: float
    n: int

    def as_tuple(self) -> tuple:
        return (self.median, self.interval)


def summary_order_stats(x, coverage: float = 0.9) -> OrderStats:
    """Compute the (median, interval) pair the paper reports per attribute."""
    arr = check_1d(x, "x", min_len=1)
    return OrderStats(
        median=float(np.quantile(arr, 0.5)),
        interval=interval(arr, coverage),
        coverage=float(coverage),
        n=int(arr.shape[0]),
    )
