"""SMACOF majorization MDS (metric and nonmetric), from scratch.

The engine behind :func:`repro.coplot.mds.ssa.smallest_space_analysis`.
Each iteration (a) replaces dissimilarities by disparities that respect
their order — via Kruskal isotonic regression or Guttman's rank-image — and
(b) applies the Guttman transform, the closed-form minimizer of the stress
majorization.  Multiple restarts (one deterministic from classical scaling,
the rest random) guard against local minima; the best configuration is kept.

Two engines share the public entry point: the default ``"batched"`` engine
runs every restart in lockstep as one ``(k, n, dim)`` tensor — batched
Guttman transforms, per-restart vectorized PAVA, cached ``triu`` indices,
and no per-iteration input re-validation — while ``"reference"`` keeps the
original one-restart-at-a-time scalar path as the permanent equivalence
oracle (the property tests assert both select the same restart and agree
on coordinates to 1e-9).

The batch rows need not share a problem: :func:`_solve_many` stacks the
restarts of many same-size problems into batches of bounded size (what
:meth:`~repro.coplot.model.Coplot.fit_many` and the variable bootstrap
run), and :func:`smacof` is its one-problem call.  Every row's arithmetic
is independent of the rows batched with it — every sum over a row's
dissimilarities is a running sum — so a problem's map is bit-for-bit the
one a lone :func:`smacof` call computes.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.coplot.mds.alienation import coefficient_of_alienation, kruskal_stress
from repro.coplot.mds.base import (
    MDSResult,
    check_dissimilarity,
    pairwise_euclidean,
    upper_triangle,
)
from repro.coplot.mds.classical import classical_mds
from repro.coplot.mds.monotone import (
    _pava_rows,
    isotonic_regression_reference,
    rank_image,
)
from repro.obs.spans import span as obs_span
from repro.util.rng import SeedLike, as_generator

__all__ = ["smacof"]

_TRANSFORMS = ("metric", "isotonic", "rank-image")
_ENGINES = ("batched", "reference")

# Entries in each (rows, n, n) working array of one _run_batch call (8 MB
# of float64); _solve_many slices bigger stacks so peak memory stays flat.
_BATCH_CELLS = 1 << 20


@lru_cache(maxsize=128)
def _triu(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached strict-upper-triangle index pair for an n x n matrix.

    ``np.triu_indices`` costs O(n²) and was recomputed on every SMACOF
    iteration via ``_to_matrix``; the cache makes it once per size.
    """
    return np.triu_indices(n, k=1)


def _disparities(
    sv: np.ndarray, dv: np.ndarray, transform: str
) -> np.ndarray:
    """Compute disparities for the current distances *dv* given
    dissimilarities *sv* (reference scalar path, one restart at a time)."""
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


# ---------------------------------------------------------------------------
# Batched engine: all restarts advance in lockstep as a (k, n, dim) tensor.
# ---------------------------------------------------------------------------


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


class _OrderKeys:
    """Loop-invariant keys for the batched per-row lexsort.

    The row labels and row offsets only depend on the batch shape, which
    shrinks as restarts converge; caching them per size keeps the
    per-iteration cost to the lexsort itself.
    """

    def __init__(self, m: int):
        self._m = m
        self._by_size: dict = {}

    def get(self, k: int) -> tuple:
        keys = self._by_size.get(k)
        if keys is None:
            rows = np.repeat(np.arange(k), self._m)
            offsets = (np.arange(k) * self._m)[:, None]
            keys = (rows, offsets)
            self._by_size[k] = keys
        return keys


def _batched_orders(
    sv_rows: np.ndarray, dv: np.ndarray, keys: _OrderKeys
) -> np.ndarray:
    """Per-row ``lexsort((dv[j], sv_rows[j]))`` permutations, in one lexsort.

    A single stable three-key sort (row, then sv, then dv) yields every
    row's dissimilarity order at once; within a row the permutation is
    identical to the per-row call because lexsort is stable.
    """
    k, m = dv.shape
    rows, offsets = keys.get(k)
    order = np.lexsort((dv.ravel(), np.ascontiguousarray(sv_rows).ravel(), rows))
    return order.reshape(k, m) - offsets


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Left-to-right sums of the rows of a (k, m) batch.

    ``np.sum(axis=1)`` sums a row pairwise when the row is contiguous in
    memory and left to right when it is strided, so its rounding would
    depend on the batch layout — and a one-row batch is always
    contiguous.  A running sum has one order for every batch size, which
    keeps each row's result independent of the rows batched with it; the
    batched engine sums over m only through here.
    """
    return np.cumsum(x, axis=1)[:, -1]


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


def _batched_stress(dhat: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Row-wise Kruskal stress-1 for (k, m) disparity/distance batches."""
    denom = _row_sums(dv * dv)
    num = _row_sums((dhat - dv) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        stress = np.sqrt(num / denom)
    zero = denom == 0
    if zero.any():
        # Mirror kruskal_stress: all-zero distances give stress 0 when the
        # disparities are also (numerically) zero, infinity otherwise.
        for j in np.flatnonzero(zero):
            stress[j] = 0.0 if np.allclose(dhat[j], 0) else math.inf
    return stress


def _to_matrix_batch(flat: np.ndarray, n: int) -> np.ndarray:
    """(k, m) disparity vectors -> (k, n, n) symmetric matrices."""
    iu = _triu(n)
    mat = np.zeros((flat.shape[0], n, n))
    mat[:, iu[0], iu[1]] = flat
    mat[:, iu[1], iu[0]] = flat
    return mat


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
    converged) arrays matching what :func:`_run_single` would produce for
    each start independently.

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
        # Rows whose disparities collapsed stop exactly like the
        # reference `break`: stress untouched, not converged.
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


def _solve_many(
    mats: Sequence[np.ndarray],
    dim: int,
    *,
    transform: str,
    n_init: int,
    max_iter: int,
    tol: float,
    select_by: str = "alienation",
    seed: SeedLike = None,
    init: Optional[np.ndarray] = None,
    engine: str = "batched",
) -> List[MDSResult]:
    """Best-of-restarts SMACOF for a stack of validated n x n problems.

    Each problem gets the starts a lone :func:`smacof` call would draw
    (*init*, or classical scaling plus ``n_init - 1`` normals from
    ``as_generator(seed)``, drawn in problem order); the batched engine
    then runs every problem's restarts as rows of :func:`_run_batch`
    calls of at most ``_BATCH_CELLS // n²`` rows each, and each problem
    keeps its best restart.  Rows never affect each other, so where the
    slices fall does not matter: entry i is exactly ``smacof(mats[i], ...)``.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if transform not in _TRANSFORMS:
        raise ValueError(f"transform must be one of {_TRANSFORMS}, got {transform!r}")
    if select_by not in ("alienation", "stress"):
        raise ValueError(f"select_by must be 'alienation' or 'stress', got {select_by!r}")
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")
    if engine not in _ENGINES:
        raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")
    best: Dict[int, MDSResult] = {}
    best_key: Dict[int, float] = {}
    owners: List[int] = []
    rows: List[np.ndarray] = []
    starts: List[np.ndarray] = []
    for i, mat in enumerate(mats):
        n = mat.shape[0]
        sv = upper_triangle(mat)
        if np.all(sv == 0):
            # Degenerate: all observations identical; everything at the origin.
            best[i] = MDSResult(
                coords=np.zeros((n, dim)), alienation=0.0, stress=0.0, n_iter=0, converged=True
            )
            continue
        if init is not None:
            init_arr = np.asarray(init, dtype=float)
            if init_arr.shape != (n, dim):
                raise ValueError(f"init must have shape ({n}, {dim}), got {init_arr.shape}")
            own = [init_arr.copy()]
        else:
            rng = as_generator(seed)
            scale = float(sv.mean())
            own = [classical_mds(mat, dim=dim)]
            own += [rng.normal(scale=scale, size=(n, dim)) for _ in range(n_init - 1)]
        owners += [i] * len(own)
        rows += [sv] * len(own)
        starts += own
    if not starts:
        return [best[i] for i in range(len(mats))]

    n = starts[0].shape[0]
    # The SSA/SMACOF iteration loop is the engine's hottest path; the
    # ambient span makes it visible in streamed traces (no-op untraced).
    with obs_span(
        "mds.solve",
        transform=transform,
        n=n,
        problems=len(mats),
        starts=len(starts),
        engine=engine,
    ) as handle:
        if engine == "batched":
            step = max(1, _BATCH_CELLS // (n * n))
            runs = []
            for lo in range(0, len(starts), step):
                coords, stresses, n_iters, convs = _run_batch(
                    np.stack(rows[lo : lo + step]),
                    n,
                    np.stack(starts[lo : lo + step]),
                    transform,
                    max_iter,
                    tol,
                )
                runs += [
                    (coords[j], float(stresses[j]), int(n_iters[j]), bool(convs[j]))
                    for j in range(len(coords))
                ]
        else:
            runs = [
                _run_single(sv, n, start, transform, max_iter, tol)
                for sv, start in zip(rows, starts)
            ]
        for i, sv, (coords, stress, it, conv) in zip(owners, rows, runs):
            theta = coefficient_of_alienation(sv, upper_triangle(pairwise_euclidean(coords)))
            key = theta if select_by == "alienation" else stress
            if key < best_key.get(i, math.inf):
                best_key[i] = key
                best[i] = MDSResult(
                    coords=coords,
                    alienation=theta,
                    stress=stress,
                    n_iter=it,
                    converged=conv,
                )
        handle.set(
            n_iter=max(r.n_iter for r in best.values()),
            converged=all(r.converged for r in best.values()),
            alienation=round(max(r.alienation for r in best.values()), 6),
        )
    return [best[i] for i in range(len(mats))]


def smacof(
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
    engine: str = "batched",
) -> MDSResult:
    """Run SMACOF MDS on a dissimilarity matrix.

    Parameters
    ----------
    s:
        Symmetric n x n dissimilarity matrix.
    dim:
        Target dimensionality (the paper uses 2).
    transform:
        ``"metric"`` (disparities proportional to the dissimilarities),
        ``"isotonic"`` (Kruskal nonmetric) or ``"rank-image"`` (Guttman
        nonmetric, the SSA flavour).
    init:
        Optional starting configuration (n x dim).  When given, only this
        start is used.
    n_init:
        Number of starts: the first is deterministic (classical scaling),
        the rest are random.
    max_iter, tol:
        Per-start iteration budget and stress-change stopping tolerance.
    select_by:
        ``"alienation"`` keeps the restart with the lowest coefficient of
        alienation (what the paper reports); ``"stress"`` keeps the lowest
        Kruskal stress.
    seed:
        RNG seed for the random restarts.
    engine:
        ``"batched"`` (default) advances all restarts in lockstep on
        vectorized kernels; ``"reference"`` runs the original sequential
        scalar path.  Both produce the same result (coords within 1e-9,
        same selected restart); the reference engine exists so that stays
        a tested property rather than a one-time claim.

    Returns
    -------
    MDSResult
    """
    mat = check_dissimilarity(s)
    return _solve_many(
        [mat],
        dim,
        transform=transform,
        n_init=n_init,
        max_iter=max_iter,
        tol=tol,
        select_by=select_by,
        seed=seed,
        init=init,
        engine=engine,
    )[0]
