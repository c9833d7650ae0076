"""Statistics substrate.

Distributions used by the paper's synthetic models and by our log
synthesizer (hyper-exponential, hyper-Erlang, gamma, log-uniform,
log-normal), plus order-statistic, moment-matching, correlation and
regression helpers used throughout the analyses.
"""

from repro.stats.distributions import (
    Distribution,
    Exponential,
    Uniform,
    LogUniform,
    TwoStageLogUniform,
    LogNormal,
    Gamma,
    Erlang,
    HyperExponential,
    HyperErlang,
    Mixture,
    Discrete,
)
from repro.stats.percentiles import (
    percentile,
    median,
    interval,
    interval90,
    interval50,
    summary_order_stats,
)
from repro.stats.moments import (
    sample_moments,
    central_to_raw,
    raw_to_central,
    fit_hyper_erlang,
    fit_two_stage_hyperexp,
)
from repro.stats.robust import quantile_skewness, octile_skewness, trimmed_third_moment
from repro.stats.gof import empirical_cdf, ks_statistic, qq_log_distance
from repro.stats.correlation import pearson, spearman, correlation_matrix
from repro.stats.regression import linear_fit, LinearFit

__all__ = [
    "Distribution",
    "Exponential",
    "Uniform",
    "LogUniform",
    "TwoStageLogUniform",
    "LogNormal",
    "Gamma",
    "Erlang",
    "HyperExponential",
    "HyperErlang",
    "Mixture",
    "Discrete",
    "percentile",
    "median",
    "interval",
    "interval90",
    "interval50",
    "summary_order_stats",
    "sample_moments",
    "central_to_raw",
    "raw_to_central",
    "fit_hyper_erlang",
    "fit_two_stage_hyperexp",
    "empirical_cdf",
    "ks_statistic",
    "qq_log_distance",
    "quantile_skewness",
    "octile_skewness",
    "trimmed_third_moment",
    "pearson",
    "spearman",
    "correlation_matrix",
    "linear_fit",
    "LinearFit",
]
