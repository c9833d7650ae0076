"""Scalar SMACOF and PAVA, and the first lockstep loop: the oracles of
:mod:`repro.coplot.mds`.

:func:`smacof_reference` draws the same starts as
:func:`~repro.coplot.mds.smacof.smacof` (the given *init*, or classical
scaling plus ``n_init - 1`` normals from ``as_generator(seed)``), runs
each restart alone through :func:`_run_single`, and keeps the best by the
same rule.  Its disparities come from :func:`isotonic_regression_reference`,
the stack-based PAVA loop the block-merge kernel ``_pava_rows`` replaced,
and :func:`rank_image`, Guttman's transform with its input checks.

:func:`run_batch_reference` is the lockstep ``_run_batch`` that the
pair-triangle loop in :mod:`repro.coplot.mds.smacof` replaced: every
iteration re-gathers the active rows, builds (k, n, n) distance, ratio
and B matrices, and scatters disparities with ``put_along_axis``.  It
shares the helpers the new loop kept (stress, orders and row sums), and
the new loop must reproduce its every output bit.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.coplot.mds.alienation import coefficient_of_alienation, kruskal_stress
from repro.coplot.mds.base import (
    MDSResult,
    check_dissimilarity,
    pairwise_euclidean,
    upper_triangle,
)
from repro.coplot.mds.classical import classical_mds
from repro.coplot.mds.monotone import _pava_rows
from repro.coplot.mds.smacof import (
    _batched_orders,
    _batched_stress,
    _OrderKeys,
    _row_sums,
    _triu,
)
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_1d

__all__ = [
    "isotonic_regression_reference",
    "rank_image",
    "run_batch_reference",
    "smacof_reference",
]

_TRANSFORMS = ("metric", "isotonic", "rank-image")


def _rank_image_unchecked(d: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Rank-image kernel: no permutation re-verification (hot loop)."""
    out = np.empty(d.shape[0])
    out[order] = np.sort(d)
    return out


def rank_image(distances, order: Optional[np.ndarray] = None) -> np.ndarray:
    """Guttman's rank-image transform.

    Returns the vector holding the same multiset of values as *distances*
    but arranged so that its order agrees with *order* (the permutation that
    sorts the dissimilarities ascending).  With ``order=None`` the distances
    are assumed to be already listed in dissimilarity order, and the result
    is simply ``sort(distances)`` mapped back to the original positions.
    """
    d = check_1d(distances, "distances", min_len=1)
    n = len(d)
    if order is None:
        order = np.arange(n)
    else:
        order = np.asarray(order)
        if sorted(order.tolist()) != list(range(n)):
            raise ValueError("order must be a permutation of 0..n-1")
    # Positions listed in dissimilarity order receive the sorted distances.
    return _rank_image_unchecked(d, order)


def isotonic_regression_reference(y) -> np.ndarray:
    """The original scalar PAVA loop.

    Maintains blocks as (value, count) on an explicit stack and merges
    backwards whenever a new block violates monotonicity.  Returns the
    non-decreasing vector minimizing ``Σ (fit - y)²`` over *y*.
    """
    arr = check_1d(y, "y", min_len=1)
    n = len(arr)
    values = np.empty(n)
    counts = np.empty(n)
    top = 0
    for i in range(n):
        values[top] = arr[i]
        counts[top] = 1.0
        top += 1
        while top > 1 and values[top - 2] > values[top - 1]:
            total = counts[top - 2] + counts[top - 1]
            values[top - 2] = (
                values[top - 2] * counts[top - 2] + values[top - 1] * counts[top - 1]
            ) / total
            counts[top - 2] = total
            top -= 1
    return np.repeat(values[:top], counts[:top].astype(np.int64))


def _disparities(
    sv: np.ndarray, dv: np.ndarray, transform: str
) -> np.ndarray:
    """Compute disparities for the current distances *dv* given
    dissimilarities *sv* (one restart at a time)."""
    if transform == "metric":
        denom = float(np.sum(sv * sv))
        scale = float(np.sum(sv * dv)) / denom if denom > 0 else 1.0
        return sv * scale
    # Ties in sv are broken by the current distances (Kruskal's primary
    # approach): within a tie block the distances are free to keep their
    # own order.
    order = np.lexsort((dv, sv))
    out = np.empty_like(dv)
    if transform == "isotonic":
        out[order] = isotonic_regression_reference(dv[order])
    elif transform == "rank-image":
        out = rank_image(dv, order)
    else:  # pragma: no cover - guarded by caller
        raise ValueError(f"unknown transform {transform!r}")
    return out


def _guttman_transform(coords: np.ndarray, dhat_mat: np.ndarray) -> np.ndarray:
    """One Guttman transform step: X <- (1/n) B(X) X with unit weights."""
    n = coords.shape[0]
    d = pairwise_euclidean(coords)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(d > 0, dhat_mat / np.where(d > 0, d, 1.0), 0.0)
    b = -ratio
    np.fill_diagonal(b, 0.0)
    np.fill_diagonal(b, -b.sum(axis=1))
    return (b @ coords) / n


def _to_matrix(flat: np.ndarray, n: int) -> np.ndarray:
    mat = np.zeros((n, n))
    iu = _triu(n)
    mat[iu] = flat
    mat[(iu[1], iu[0])] = flat
    return mat


def _run_single(
    sv: np.ndarray,
    n: int,
    coords: np.ndarray,
    transform: str,
    max_iter: int,
    tol: float,
) -> tuple:
    m = len(sv)
    stress_prev = math.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        dv = upper_triangle(pairwise_euclidean(coords))
        dhat = _disparities(sv, dv, transform)
        # Normalize disparities to fixed total squared size to pin the
        # scale of the problem (standard nonmetric SMACOF normalization).
        norm = float(np.sum(dhat**2))
        if norm <= 0:
            break
        dhat = dhat * math.sqrt(m / norm)
        stress = kruskal_stress(dhat, dv)
        if abs(stress_prev - stress) < tol:
            converged = True
            stress_prev = stress
            break
        stress_prev = stress
        coords = _guttman_transform(coords, _to_matrix(dhat, n))
    coords = coords - coords.mean(axis=0)
    return coords, float(stress_prev), it, converged


def smacof_reference(
    s,
    dim: int = 2,
    *,
    transform: str = "isotonic",
    init: Optional[np.ndarray] = None,
    n_init: int = 8,
    max_iter: int = 300,
    tol: float = 1e-9,
    select_by: str = "alienation",
    seed: SeedLike = None,
) -> MDSResult:
    """:func:`~repro.coplot.mds.smacof.smacof` with every restart run alone
    through the scalar loop."""
    mat = check_dissimilarity(s)
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if transform not in _TRANSFORMS:
        raise ValueError(f"transform must be one of {_TRANSFORMS}, got {transform!r}")
    if select_by not in ("alienation", "stress"):
        raise ValueError(f"select_by must be 'alienation' or 'stress', got {select_by!r}")
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")
    n = mat.shape[0]
    sv = upper_triangle(mat)
    if np.all(sv == 0):
        # Degenerate: all observations identical; everything at the origin.
        return MDSResult(
            coords=np.zeros((n, dim)), alienation=0.0, stress=0.0, n_iter=0, converged=True
        )
    if init is not None:
        init_arr = np.asarray(init, dtype=float)
        if init_arr.shape != (n, dim):
            raise ValueError(f"init must have shape ({n}, {dim}), got {init_arr.shape}")
        starts = [init_arr.copy()]
    else:
        rng = as_generator(seed)
        scale = float(sv.mean())
        starts = [classical_mds(mat, dim=dim)]
        starts += [rng.normal(scale=scale, size=(n, dim)) for _ in range(n_init - 1)]

    best: Optional[MDSResult] = None
    best_key = math.inf
    for start in starts:
        coords, stress, it, conv = _run_single(sv, n, start, transform, max_iter, tol)
        theta = coefficient_of_alienation(sv, upper_triangle(pairwise_euclidean(coords)))
        key = theta if select_by == "alienation" else stress
        if key < best_key:
            best_key = key
            best = MDSResult(
                coords=coords, alienation=theta, stress=stress, n_iter=it, converged=conv
            )
    assert best is not None, "no restart produced a finite selection key"
    return best


# -- the lockstep loop ----------------------------------------------------------


def _batched_pairwise(coords: np.ndarray) -> np.ndarray:
    """(k, n, dim) configurations -> (k, n, n) Euclidean distances.

    Accumulates squared differences one coordinate axis at a time: the
    same left-to-right summation a reduction over a short last axis
    performs, without materializing the (k, n, n, dim) temporary.
    """
    sq = None
    for a in range(coords.shape[2]):
        diff = coords[:, :, None, a] - coords[:, None, :, a]
        diff *= diff
        if sq is None:
            sq = diff
        else:
            sq += diff
    return np.sqrt(sq)


def _to_matrix_batch(flat: np.ndarray, n: int) -> np.ndarray:
    """(k, m) disparity vectors -> (k, n, n) symmetric matrices."""
    iu = _triu(n)
    mat = np.zeros((flat.shape[0], n, n))
    mat[:, iu[0], iu[1]] = flat
    mat[:, iu[1], iu[0]] = flat
    return mat


def _batched_disparities(
    sv_rows: np.ndarray,
    dv: np.ndarray,
    transform: str,
    orders: Optional[np.ndarray],
) -> np.ndarray:
    """Disparities for a (k, m) batch of distance vectors.

    Row j's dissimilarities are ``sv_rows[j]`` and its dissimilarity
    order is ``orders[j]`` (the metric transform needs no order).
    """
    if transform == "metric":
        denom = _row_sums(sv_rows * sv_rows)
        safe = np.where(denom > 0, denom, 1.0)
        scale = np.where(denom > 0, _row_sums(sv_rows * dv) / safe, 1.0)
        return sv_rows * scale[:, None]
    out = np.empty_like(dv)
    if transform == "isotonic":
        fits = _pava_rows(np.take_along_axis(dv, orders, axis=1))
        np.put_along_axis(out, orders, fits, axis=1)
    else:
        # Rank-image: positions listed in dissimilarity order receive the
        # sorted distances, batched over restarts.
        np.put_along_axis(out, orders, np.sort(dv, axis=1), axis=1)
    return out


def _batched_guttman(
    coords: np.ndarray, dhat_mat: np.ndarray, d: Optional[np.ndarray] = None
) -> np.ndarray:
    """Guttman transform for a (k, n, dim) batch with unit weights.

    *d* lets the caller pass the distances it already computed for these
    configurations this iteration instead of recomputing them.
    """
    n = coords.shape[1]
    if d is None:
        d = _batched_pairwise(coords)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(d > 0, dhat_mat / np.where(d > 0, d, 1.0), 0.0)
    b = -ratio
    ar = np.arange(n)
    b[:, ar, ar] = 0.0
    b[:, ar, ar] = -b.sum(axis=2)
    return (b @ coords) / n


def _run_batch(
    sv: np.ndarray,
    n: int,
    starts: np.ndarray,
    transform: str,
    max_iter: int,
    tol: float,
) -> tuple:
    """Every row in lockstep; returns per-row (coords, stress, n_iter,
    converged) arrays, each row what its start gives when run alone.

    *sv* is (k, m): row j embeds ``sv[j]`` from ``starts[j]``.  The
    restarts of one problem repeat its vector; rows of different problems
    carry their own, which is how :func:`_solve_many` batches problems.
    """
    k, m = sv.shape
    coords = starts.copy()
    stress_prev = np.full(k, math.inf)
    n_iter = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    active = np.ones(k, dtype=bool)
    iu = _triu(n)
    keys = _OrderKeys(m)
    # Per-row tie rule: a row without tied dissimilarities keeps one sort
    # order for the whole run (the distance key of the lexsort only breaks
    # sv ties), so it is sorted once; only tied rows are lexsorted again
    # every iteration.
    static_orders = np.argsort(sv, axis=1, kind="stable")
    sv_sorted = np.take_along_axis(sv, static_orders, axis=1)
    tied = (sv_sorted[:, 1:] == sv_sorted[:, :-1]).any(axis=1)
    for it in range(1, max_iter + 1):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        d = _batched_pairwise(coords[idx])
        dv = d[:, iu[0], iu[1]]
        sv_rows = sv[idx]
        orders = None
        if transform != "metric":
            orders = static_orders[idx]
            redo = tied[idx]
            if redo.any():
                orders[redo] = _batched_orders(sv_rows[redo], dv[redo], keys)
        dhat = _batched_disparities(sv_rows, dv, transform, orders)
        norm = _row_sums(dhat * dhat)
        n_iter[idx] = it
        # Rows whose disparities collapsed stop with their stress
        # untouched and not converged.
        live = norm > 0
        if live.any():
            li = np.flatnonzero(live)
            dhat_l = dhat[li] * np.sqrt(m / norm[li])[:, None]
            stress = _batched_stress(dhat_l, dv[li])
            with np.errstate(invalid="ignore"):
                newly_conv = np.abs(stress_prev[idx[li]] - stress) < tol
            converged[idx[li[newly_conv]]] = True
            stress_prev[idx[li]] = stress
            go = li[~newly_conv]
            if go.size:
                gi = idx[go]
                coords[gi] = _batched_guttman(
                    coords[gi], _to_matrix_batch(dhat_l[~newly_conv], n), d=d[go]
                )
            active[idx[li[newly_conv]]] = False
        active[idx[~live]] = False
    coords = coords - coords.mean(axis=1, keepdims=True)
    return coords, stress_prev, n_iter, converged


#: The public name of the oracle; the body above keeps its original name.
run_batch_reference = _run_batch
