"""Stage 1 of Co-plot: variable normalization.

Equation (1) of the paper: each variable is centred by its mean and divided
by its standard deviation so variables with different units and scales become
comparable.  Table 1 contains N/A cells, so every statistic here is
NaN-aware: means and deviations are computed over the present values, and
missing cells stay NaN for the dissimilarity stage to handle.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_1d, check_2d

__all__ = ["zscore", "normalize_matrix"]


def zscore(x, *, ddof: int = 0) -> np.ndarray:
    """Z-score a single variable, ignoring NaNs.

    Constant variables (zero deviation) normalize to all zeros rather than
    dividing by zero — they carry no ordering information either way.
    """
    arr = check_1d(x, "x", min_len=1).copy()
    mask = ~np.isnan(arr)
    if mask.sum() == 0:
        return arr
    mean = arr[mask].mean()
    std = arr[mask].std(ddof=ddof) if mask.sum() > ddof else 0.0
    if std == 0:
        arr[mask] = 0.0
        return arr
    arr[mask] = (arr[mask] - mean) / std
    return arr


def normalize_matrix(y, *, ddof: int = 0) -> np.ndarray:
    """Normalize every column of the observation matrix ``Y`` (Eq. 1).

    Returns the matrix ``Z`` with ``Z[i, j] = (Y[i, j] - mean_j) / std_j``,
    NaN cells preserved.
    """
    mat = check_2d(y, "y")
    out = np.empty_like(mat)
    for j in range(mat.shape[1]):
        out[:, j] = zscore(mat[:, j], ddof=ddof)
    return out
