"""Order statistics: central intervals.

Section 3 of the paper argues that means and coefficients of variation of
workload attributes are dominated by the extreme tail — removing the 0.1%
'taily' jobs can change the average by 5% and the CV by 40% — so all analyses
use *order moments*: the median and the 90% interval (difference between the
95th and 5th percentiles).  These helpers compute the interval.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_1d, check_probability

__all__ = ["interval", "interval90"]


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
