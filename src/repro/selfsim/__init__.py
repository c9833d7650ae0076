"""Self-similarity analysis (Section 9 and the paper's appendix).

Three Hurst-parameter estimators — rescaled-range (R/S pox plots),
variance-time plots, and periodogram analysis — plus an exact fractional
Gaussian noise generator (Davies-Harte) used both to validate the
estimators against known H and to inject long-range dependence into the
synthesized production logs.  A local-Whittle estimator is included as the
"more robust estimator" extension the paper's future-work section calls for.
"""

from repro.selfsim.aggregate import aggregate_series
from repro.selfsim.rs_analysis import rs_statistic, rs_pox_points, hurst_rs
from repro.selfsim.variance_time import variance_time_points, hurst_variance_time
from repro.selfsim.periodogram import periodogram, hurst_periodogram
from repro.selfsim.whittle import hurst_local_whittle
from repro.selfsim.fgn import fgn, fgn_autocovariance
from repro.selfsim.hurst import HurstEstimate, estimate_hurst, hurst_summary, HURST_METHODS
from repro.selfsim.series import workload_series, SERIES_ATTRIBUTES, binned_counts

__all__ = [
    "aggregate_series",
    "rs_statistic",
    "rs_pox_points",
    "hurst_rs",
    "variance_time_points",
    "hurst_variance_time",
    "periodogram",
    "hurst_periodogram",
    "hurst_local_whittle",
    "fgn",
    "fgn_autocovariance",
    "HurstEstimate",
    "estimate_hurst",
    "hurst_summary",
    "HURST_METHODS",
    "workload_series",
    "SERIES_ATTRIBUTES",
    "binned_counts",
]
