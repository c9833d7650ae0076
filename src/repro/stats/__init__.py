"""Statistics substrate.

Distributions used by the paper's synthetic models and by our log
synthesizer (hyper-Erlang, gamma, log-uniform, log-normal), plus
order-statistic, moment-matching, correlation and regression helpers used
throughout the analyses.
"""

from repro.stats.distributions import (
    Distribution,
    Exponential,
    LogUniform,
    TwoStageLogUniform,
    LogNormal,
    Gamma,
    Erlang,
    HyperErlang,
    Mixture,
    Discrete,
)
from repro.stats.percentiles import interval, interval90
from repro.stats.moments import sample_moments, fit_hyper_erlang
from repro.stats.robust import quantile_skewness, octile_skewness, trimmed_third_moment
from repro.stats.gof import ks_statistic, qq_log_distance
from repro.stats.correlation import pearson, spearman, correlation_matrix
from repro.stats.regression import linear_fit, LinearFit

__all__ = [
    "Distribution",
    "Exponential",
    "LogUniform",
    "TwoStageLogUniform",
    "LogNormal",
    "Gamma",
    "Erlang",
    "HyperErlang",
    "Mixture",
    "Discrete",
    "interval",
    "interval90",
    "sample_moments",
    "fit_hyper_erlang",
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
