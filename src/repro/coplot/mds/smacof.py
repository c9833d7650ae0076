"""SMACOF majorization MDS (metric and nonmetric), from scratch.

The engine behind :func:`repro.coplot.mds.ssa.smallest_space_analysis`.
Each iteration (a) replaces dissimilarities by disparities that respect
their order — via Kruskal isotonic regression or Guttman's rank-image — and
(b) applies the Guttman transform, the closed-form minimizer of the stress
majorization.  Multiple restarts (one deterministic from classical scaling,
the rest random) guard against local minima; the configuration with the
lowest coefficient of alienation, what the paper reports, is kept.

Every restart runs in lockstep as one ``(k, n, dim)`` tensor — batched
Guttman transforms, per-restart vectorized PAVA, distances and
disparities on the n(n-1)/2 point pairs, and no per-iteration input
re-validation.  The one-restart-at-a-time scalar path this replaced is
the equivalence oracle in ``tests/oracles/mds.py``, beside the first
lockstep loop: the property tests assert the scalar path selects the
same restart and agrees on coordinates to 1e-9 (see docs/PERFORMANCE.md
for the inputs that claim covers), and the lockstep loop every bit.

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

from repro.coplot.mds.alienation import coefficient_of_alienation
from repro.coplot.mds.base import (
    MDSResult,
    check_dissimilarity,
    pairwise_euclidean,
    upper_triangle,
)
from repro.coplot.mds.classical import classical_mds
from repro.coplot.mds.monotone import _pava_rows
from repro.obs.spans import span as obs_span
from repro.util.rng import SeedLike, as_generator

__all__ = ["smacof"]

_TRANSFORMS = ("metric", "isotonic", "rank-image")

# Entries in the (rows, n²) Guttman B matrix of one _run_batch call (8 MB
# of float64); _solve_many slices bigger stacks so peak memory stays flat.
_BATCH_CELLS = 1 << 20


@lru_cache(maxsize=128)
def _triu(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached strict-upper-triangle index pair for an n x n matrix.

    ``np.triu_indices`` costs O(n²) and was recomputed on every SMACOF
    iteration via ``_to_matrix``; the cache makes it once per size.
    """
    return np.triu_indices(n, k=1)


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
    keeps each row's result independent of the rows batched with it;
    SMACOF sums over m only through here.
    """
    return np.cumsum(x, axis=1)[:, -1]


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


@lru_cache(maxsize=128)
def _pair_maps(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached maps between the m pairs and an n x n matrix: ``ends``, the
    pairs' first then second points in ``_triu`` order, and ``cells``,
    each flat cell's column in a (rows, 1 + m) array: 0 on the diagonal,
    1 + the pair's index at (i, j) and (j, i)."""
    iu = _triu(n)
    cells = np.zeros((n, n), dtype=np.intp)
    cells[iu] = cells[iu[1], iu[0]] = np.arange(1, iu[0].size + 1)
    return np.concatenate(iu), cells.ravel()


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

    The rows still iterating are kept compacted, and a row's results go
    to its own index in the iteration it stops.  Distances, disparities
    and the Guttman ratios live on the m pairs; only the transform's B
    matrix is n x n.
    """
    k, m = sv.shape
    coords = starts.copy()
    stress = np.full(k, math.inf)
    n_iter = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    ends, cells = _pair_maps(n)
    # The working set: the rows still iterating, in batch order, and their
    # Guttman ratios in the leading rows of a buffer whose column 0 is +0.0.
    rows, x, s, prev = np.arange(k), coords, sv, stress
    ratios = np.zeros((k, 1 + m))
    if transform != "metric":
        # Per-row tie rule: a row without tied dissimilarities keeps one
        # sort order for the whole run (the distance key of the lexsort
        # only breaks sv ties), so it is sorted once; only tied rows are
        # lexsorted again every iteration.  The orders are kept as flat
        # positions in a C-ordered (rows, m) buffer.
        keys = _OrderKeys(m)
        orders = np.argsort(sv, axis=1, kind="stable")
        sv_sorted = np.take_along_axis(sv, orders, axis=1)
        tie = (sv_sorted[:, 1:] == sv_sorted[:, :-1]).any(axis=1)
        base = np.arange(k)[:, None] * m
        flat, redo = orders + base, np.flatnonzero(tie)
    it = 0
    for it in range(1, max_iter + 1):
        # Pair distances in _triu order, each pair's squared differences
        # summed from axis 0.
        xy = x.take(ends, axis=1)
        diff = xy[:, :m] - xy[:, m:]
        diff *= diff
        sq = diff[:, :, 0]
        for a in range(1, diff.shape[2]):
            sq = sq + diff[:, :, a]
        dv = np.sqrt(sq)
        if transform == "metric":
            ss = _row_sums(s * s)
            scale = np.where(ss > 0, _row_sums(s * dv) / np.where(ss > 0, ss, 1.0), 1.0)
            dhat = s * scale[:, None]
        else:
            if redo.size:
                flat[redo] = _batched_orders(s[redo], dv[redo], keys) + base[redo]
            dhat = np.empty(dv.size)
            if transform == "isotonic":
                dhat[flat] = _pava_rows(dv.take(flat))
            else:
                # Rank-image: positions listed in dissimilarity order
                # receive the sorted distances.
                dhat[flat] = np.sort(dv, axis=1)
            dhat = dhat.reshape(dv.shape)
        # Rows whose disparities collapsed stop with their stress
        # untouched and not converged (their scaled disparities are not
        # finite and go unused); the others' stress takes
        # _batched_stress's zero-distance rule.
        norm = _row_sums(dhat * dhat)
        live = norm > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            dhat *= np.sqrt(m / norm)[:, None]
            new = np.where(live, _batched_stress(dhat, dv), prev)
            done = live & (np.abs(prev - new) < tol)
        stop = done | ~live
        prev = new
        if stop.any():
            # Stopped rows take no step: a converged row leaves with its
            # new stress, a collapsed one with its previous stress.
            out = rows[stop]
            coords[out] = x[stop]
            stress[out] = prev[stop]
            n_iter[out] = it
            converged[out] = done[stop]
            go = ~stop
            rows, x, s, prev, dv, dhat = (a[go] for a in (rows, x, s, prev, dv, dhat))
            if not rows.size:
                break
            if transform != "metric":
                orders, tie = orders[go], tie[go]
                flat, redo = orders + base[: rows.size], np.flatnonzero(tie)
        # Guttman transform: B holds -dhat/d off the diagonal (0 where d
        # is 0), gathered from the pairs and column 0's +0.0, and minus
        # its row sums on the diagonal.
        r = ratios[: rows.size, 1:]
        r[...] = 0.0
        np.divide(dhat, dv, out=r, where=dv > 0)
        np.negative(r, out=r)
        b = ratios[: rows.size].take(cells, axis=1)
        b3 = b.reshape(rows.size, n, n)
        np.negative(b3.sum(axis=2), out=b[:, :: n + 1])
        x = (b3 @ x) / n
    coords[rows] = x
    stress[rows] = prev
    n_iter[rows] = it
    coords = coords - coords.mean(axis=1, keepdims=True)
    return coords, stress, n_iter, converged


def _solve_many(
    mats: Sequence[np.ndarray],
    dim: int,
    *,
    transform: str,
    n_init: int,
    max_iter: int,
    tol: float,
    seed: SeedLike = None,
    init: Optional[np.ndarray] = None,
) -> List[MDSResult]:
    """Best-of-restarts SMACOF for a stack of validated n x n problems.

    Each problem gets the starts a lone :func:`smacof` call would draw
    (*init*, or classical scaling plus ``n_init - 1`` normals from
    ``as_generator(seed)``, drawn in problem order), then runs every
    problem's restarts as rows of :func:`_run_batch` calls of at most
    ``_BATCH_CELLS // n²`` rows each, and each problem keeps its
    lowest-alienation restart.  Rows never affect each other, so where the
    slices fall does not matter: entry i is exactly ``smacof(mats[i], ...)``.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if transform not in _TRANSFORMS:
        raise ValueError(f"transform must be one of {_TRANSFORMS}, got {transform!r}")
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")
    best: Dict[int, MDSResult] = {}
    best_theta: Dict[int, float] = {}
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
    ) as handle:
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
        for i, sv, (coords, stress, it, conv) in zip(owners, rows, runs):
            theta = coefficient_of_alienation(sv, upper_triangle(pairwise_euclidean(coords)))
            if theta < best_theta.get(i, math.inf):
                best_theta[i] = theta
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
    seed: SeedLike = None,
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
    seed:
        RNG seed for the random restarts.

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
        seed=seed,
        init=init,
    )[0]
