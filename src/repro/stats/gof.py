"""Two-sample goodness-of-fit distances.

Substrate for the model-validation framework
(:mod:`repro.models.validation`): scale-free ways to compare a generated
marginal against a reference one.  Heavy-tailed workload attributes make
the usual mean-based distances useless (Section 3), so the toolkit is
order-statistic based:

* :func:`ks_statistic` — the two-sample Kolmogorov-Smirnov distance,
  sup-norm between empirical CDFs;
* :func:`qq_log_distance` — mean absolute log-ratio of matched quantiles,
  i.e. "by what factor do the distributions disagree, on average across
  their whole range".
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_1d

__all__ = ["ks_statistic", "qq_log_distance"]


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_a - F_b| in [0, 1]."""
    aa = np.sort(check_1d(a, "a", min_len=1))
    bb = np.sort(check_1d(b, "b", min_len=1))
    grid = np.concatenate([aa, bb])
    fa = np.searchsorted(aa, grid, side="right") / aa.size
    fb = np.searchsorted(bb, grid, side="right") / bb.size
    return float(np.max(np.abs(fa - fb)))


def qq_log_distance(a, b, *, n_quantiles: int = 99, floor: float = 1e-9) -> float:
    """Mean |log10 Q_a(p) / Q_b(p)| over a central quantile grid.

    Zero when the distributions agree; 1.0 means they disagree by an
    order of magnitude on average.  Quantiles below *floor* are floored so
    zero-valued samples (e.g. zero runtimes) do not blow up the log.
    """
    aa = check_1d(a, "a", min_len=2)
    bb = check_1d(b, "b", min_len=2)
    if n_quantiles < 3:
        raise ValueError(f"n_quantiles must be >= 3, got {n_quantiles}")
    ps = np.linspace(0.01, 0.99, n_quantiles)
    qa = np.maximum(np.quantile(aa, ps), floor)
    qb = np.maximum(np.quantile(bb, ps), floor)
    return float(np.mean(np.abs(np.log10(qa / qb))))
