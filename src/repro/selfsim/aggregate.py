"""Series aggregation.

Equation (8) of the paper: the m-aggregated series averages non-overlapping
blocks of size m.  Self-similar processes keep their correlation structure
under this aggregation; the variance-time estimator reads H off how fast
``Var(X^(m))`` decays in m.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_1d

__all__ = ["aggregate_series"]


def _aggregate_unchecked(arr: np.ndarray, m: int) -> np.ndarray:
    """Block-mean kernel for validated inputs (hot-loop path)."""
    n_blocks = arr.shape[0] // m
    return arr[: n_blocks * m].reshape(n_blocks, m).mean(axis=1)


def aggregate_series(x, m: int) -> np.ndarray:
    """The m-aggregated series X^(m): means of non-overlapping blocks.

    The trailing partial block (fewer than m values) is dropped, matching
    the definition in Eq. (8).
    """
    arr = check_1d(x, "x", min_len=1)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if arr.shape[0] // m == 0:
        raise ValueError(f"series of length {arr.shape[0]} has no complete block of size {m}")
    return _aggregate_unchecked(arr, m)
