"""Periodogram analysis.

Equations (18)-(19): the periodogram of a long-range-dependent series
behaves like ``Per(ω) ∝ ω^{1-2H}`` near the origin, so a log-log regression
of the periodogram on the lowest frequencies has slope 1 − 2H, giving
H = (1 − slope) / 2.  Following standard practice (and because the law only
holds near the origin) the fit uses the lowest 10% of frequencies by
default.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.stats.regression import LinearFit, linear_fit
from repro.util.validation import check_1d, check_probability

__all__ = ["periodogram", "hurst_periodogram"]


def periodogram(x) -> Tuple[np.ndarray, np.ndarray]:
    """Periodogram of the series at the Fourier frequencies.

    Returns ``(omega, per)`` where ``omega[j] = 2π j / N`` for
    j = 1..⌊N/2⌋ and ``per`` follows Eq. (18):
    ``Per(ω) = (2/N) |Σ X_k e^{iωk}|²`` of the mean-centred series.
    Computed with an FFT (the direct sums of Eq. 18 cost O(N²)).
    """
    arr = check_1d(x, "x", min_len=4)
    n = arr.shape[0]
    centred = arr - arr.mean()
    spectrum = np.fft.rfft(centred)
    # rfft index j corresponds to omega_j = 2 pi j / n; drop j = 0.
    half = n // 2
    omega = 2.0 * np.pi * np.arange(1, half + 1) / n
    per = (2.0 / n) * np.abs(spectrum[1 : half + 1]) ** 2
    return omega, per


def hurst_periodogram(
    x,
    *,
    low_fraction: float = 0.1,
    min_points: int = 8,
) -> Tuple[float, LinearFit]:
    """Hurst estimate from the periodogram slope near the origin.

    Fits log Per(ω) against log ω over the lowest *low_fraction* of
    frequencies (at least *min_points* of them) and returns
    ``H = (1 − slope) / 2`` along with the fit.
    """
    check_probability(low_fraction, "low_fraction")
    omega, per = periodogram(x)
    positive = per > 0
    omega, per = omega[positive], per[positive]
    if omega.size < min_points:
        raise ValueError("not enough positive periodogram ordinates")
    k = max(int(np.ceil(low_fraction * omega.size)), min_points)
    k = min(k, omega.size)
    fit = linear_fit(np.log(omega[:k]), np.log(per[:k]))
    return float((1.0 - fit.slope) / 2.0), fit
