"""Local Whittle estimation of the Hurst parameter.

The paper's future-work section asks for more robust estimators than the
three graphical ones; the local Whittle (Gaussian semiparametric) estimator
of Künsch/Robinson is the standard answer.  It maximizes the local Whittle
likelihood over the m lowest Fourier frequencies:

    R(H) = log( (1/m) Σ_j I(ω_j) ω_j^{2H-1} ) − (2H−1) (1/m) Σ_j log ω_j

and Ĥ = argmin R(H).  Unlike the slope fits it is scale-free and has known
asymptotic variance 1/(4m).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.selfsim.periodogram import periodogram
from repro.util.validation import check_1d

__all__ = ["hurst_local_whittle"]


def hurst_local_whittle(
    x,
    *,
    m: int = 0,
    bounds: Tuple[float, float] = (0.01, 0.99),
) -> float:
    """Local Whittle Hurst estimate using the *m* lowest frequencies.

    Parameters
    ----------
    x:
        The series (length at least 16).
    m:
        Bandwidth: number of low frequencies used.  0 (default) selects the
        conventional ``n**0.65``.
    bounds:
        Feasible H interval for the scalar minimization.

    Returns
    -------
    float
        The Hurst estimate.
    """
    arr = check_1d(x, "x", min_len=16)
    omega, per = periodogram(arr)
    n_freq = omega.size
    if m <= 0:
        m = int(len(arr) ** 0.65)
    m = max(4, min(m, n_freq))
    w = omega[:m]
    i_w = per[:m]
    positive = i_w > 0
    if positive.sum() < 4:
        raise ValueError("not enough positive periodogram ordinates")
    w, i_w = w[positive], i_w[positive]
    log_w_mean = float(np.mean(np.log(w)))

    def objective(h: float) -> float:
        exponent = 2.0 * h - 1.0
        g = float(np.mean(i_w * w**exponent))
        if g <= 0:  # pragma: no cover - i_w > 0 guarantees g > 0
            return math.inf
        return math.log(g) - exponent * log_w_mean

    from scipy import optimize  # deferred: ~0.25 s, and only this opt-in estimator needs it

    result = optimize.minimize_scalar(objective, bounds=bounds, method="bounded")
    return float(result.x)
