"""Exact fractional Gaussian noise via Davies-Harte circulant embedding.

Fractional Gaussian noise (fGn) is the stationary increment process of
fractional Brownian motion; it is the canonical exactly-self-similar series
with Hurst parameter H.  We use it (a) to validate the three estimators of
the paper's appendix against a known ground truth, and (b) as the driving
noise of the log synthesizer's copula, which is how the synthesized
production logs acquire the long-range dependence Table 3 measures.

The Davies-Harte method embeds the Toeplitz autocovariance matrix into a
circulant one, whose eigenvalues are the FFT of the first row; for fGn
those eigenvalues are provably non-negative, so sampling is exact: scale
complex white noise by the square-rooted eigenvalues and transform back.
Cost is O(n log n).
"""

from __future__ import annotations

import math

import numpy as np

from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_in_range

__all__ = ["fgn_autocovariance", "fgn"]


def fgn_autocovariance(h: float, n: int, sigma: float = 1.0) -> np.ndarray:
    """Autocovariance γ(k), k = 0..n-1, of fGn with Hurst parameter *h*.

    γ(k) = σ²/2 (|k+1|^{2H} − 2|k|^{2H} + |k−1|^{2H}).
    """
    check_in_range(h, 0.0, 1.0, "h", inclusive=False)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = np.arange(n, dtype=float)
    two_h = 2.0 * h
    return (
        sigma**2
        / 2.0
        * (np.abs(k + 1) ** two_h - 2.0 * np.abs(k) ** two_h + np.abs(k - 1) ** two_h)
    )


def fgn(n: int, h: float, *, sigma: float = 1.0, seed: SeedLike = None) -> np.ndarray:
    """Sample *n* points of exact fractional Gaussian noise.

    Parameters
    ----------
    n:
        Series length.
    h:
        Hurst parameter in (0, 1).  ``h = 0.5`` gives white noise; larger
        values give persistent, self-similar series.
    sigma:
        Marginal standard deviation.
    seed:
        RNG seed.

    Returns
    -------
    numpy.ndarray
        A zero-mean Gaussian series with the exact fGn covariance.
    """
    check_in_range(h, 0.0, 1.0, "h", inclusive=False)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    rng = as_generator(seed)
    if math.isclose(h, 0.5):
        return rng.normal(scale=sigma, size=n)

    # Circulant first row: gamma(0..m), then mirrored gamma(m-1..1).
    m = 1
    while m < n:
        m *= 2
    gamma = fgn_autocovariance(h, m + 1, sigma)
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    eigenvalues = np.fft.fft(row).real
    # Clip tiny negative values from floating-point error; genuine negative
    # eigenvalues cannot occur for fGn.
    if eigenvalues.min() < -1e-8 * eigenvalues.max():  # pragma: no cover
        raise RuntimeError("circulant embedding produced negative eigenvalues")
    eigenvalues = np.maximum(eigenvalues, 0.0)

    size = row.shape[0]  # == 2 m
    scale = np.sqrt(eigenvalues / (2.0 * size))
    noise = rng.normal(size=size) + 1j * rng.normal(size=size)
    spectrum = scale * noise
    # Real and imaginary parts of the transform are two independent exact
    # samples; we use the real part.
    sample = np.fft.fft(spectrum)
    return math.sqrt(2.0) * sample.real[:n]
