"""Stage 2 of Co-plot: pairwise dissimilarities between observations.

Equation (2) of the paper: the dissimilarity between observations *i* and
*k* is the city-block (sum of absolute deviations) distance between their
normalized rows.  Euclidean and general Minkowski metrics are provided for
the ablation study (DESIGN.md §6).

Missing values: Table 1 has N/A cells, so a pair of observations may only be
comparable on a subset of the variables.  Following standard practice (and
the only interpretation under which the paper's matrix is computable), the
sum over present coordinates is rescaled by ``p / p_present`` so distances
remain comparable across pairs with different amounts of missing data.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.util.validation import check_2d

__all__ = ["city_block", "euclidean", "minkowski", "pairwise_dissimilarity"]


def city_block(a, b) -> float:
    """City-block (L1) distance between two vectors, NaN-aware."""
    return _pair_distance(np.asarray(a, float), np.asarray(b, float), 1.0)


def euclidean(a, b) -> float:
    """Euclidean (L2) distance between two vectors, NaN-aware."""
    return _pair_distance(np.asarray(a, float), np.asarray(b, float), 2.0)


def minkowski(a, b, p: float) -> float:
    """Minkowski L_p distance between two vectors, NaN-aware."""
    if p < 1:
        raise ValueError(f"p must be >= 1 for a metric, got {p}")
    return _pair_distance(np.asarray(a, float), np.asarray(b, float), float(p))


def _pair_distance(a: np.ndarray, b: np.ndarray, p: float) -> float:
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"vectors must be 1-D of equal length, got {a.shape} vs {b.shape}")
    mask = ~(np.isnan(a) | np.isnan(b))
    n_present = int(mask.sum())
    if n_present == 0:
        raise ValueError("observations share no present variables")
    diff = np.abs(a[mask] - b[mask])
    total = float(np.sum(diff**p))
    # Rescale to the full variable count so sparser pairs are comparable.
    total *= len(a) / n_present
    return total ** (1.0 / p)


def pairwise_dissimilarity(
    z,
    *,
    metric: Union[str, float] = "cityblock",
) -> np.ndarray:
    """Symmetric n x n dissimilarity matrix S of Eq. (2).

    Parameters
    ----------
    z:
        Normalized observation matrix (n x p), NaN marking missing cells.
    metric:
        ``"cityblock"`` (the paper's choice), ``"euclidean"``, or a float
        ``p >= 1`` for the general Minkowski metric.

    Returns
    -------
    numpy.ndarray
        ``S`` with ``S[i, k] >= 0``, zero diagonal, symmetric.
    """
    mat = check_2d(z, "z")
    if isinstance(metric, str):
        if metric == "cityblock":
            p = 1.0
        elif metric == "euclidean":
            p = 2.0
        else:
            raise ValueError(f"unknown metric {metric!r}")
    else:
        p = float(metric)
        if p < 1:
            raise ValueError(f"Minkowski p must be >= 1, got {p}")

    n, n_vars = mat.shape
    nan_mask = np.isnan(mat)
    if not nan_mask.any():
        # Fast vectorized path: broadcast |row_i - row_k| ** p.
        diffs = np.abs(mat[:, None, :] - mat[None, :, :]) ** p
        out = diffs.sum(axis=2) ** (1.0 / p)
        np.fill_diagonal(out, 0.0)
        return out

    filled = np.where(nan_mask, 0.0, mat)
    present = (~nan_mask).astype(float)
    diffs = np.abs(filled[:, None, :] - filled[None, :, :]) ** p
    both = present[:, None, :] * present[None, :, :]
    counts = both.sum(axis=2)
    if np.any((counts == 0) & ~np.eye(n, dtype=bool)):
        bad = np.argwhere((counts == 0) & ~np.eye(n, dtype=bool))[0]
        raise ValueError(
            f"observations {bad[0]} and {bad[1]} share no present variables"
        )
    sums = (diffs * both).sum(axis=2)
    counts_safe = np.where(counts == 0, 1.0, counts)
    out = (sums * (n_vars / counts_safe)) ** (1.0 / p)
    np.fill_diagonal(out, 0.0)
    return out
