"""Extensions on top of a fitted Co-plot: projection and stability.

* :func:`project_observation` places a *new* observation into an existing
  map without refitting — the Section 6 use case of checking a new log
  against the established reference map, without perturbing it.
* :func:`bootstrap_stability` quantifies how stable a map is under
  resampling of the *variables* (Co-plot's sampling unit: few
  observations, many variables), reporting per-observation positional
  spread after Procrustes alignment.  The paper reports cluster stability
  qualitatively ("in some of the other runs the third cluster
  disappears"); this makes it a number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.coplot.model import Coplot, CoplotResult
from repro.coplot.procrustes import procrustes_align_batch
from repro.obs.spans import span as obs_span
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_2d

__all__ = ["project_observation", "bootstrap_stability", "StabilityReport"]


def _column_norms(y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """NaN-aware per-column mean and std of the original matrix."""
    means = np.nanmean(y, axis=0)
    stds = np.nanstd(y, axis=0)
    stds = np.where(stds == 0, 1.0, stds)
    return means, stds


def _dissim_to_rows(z_new: np.ndarray, z: np.ndarray) -> np.ndarray:
    """NaN-aware city-block distances from one vector to every row of *z*.

    One broadcast evaluation of
    :func:`~repro.coplot.dissimilarity.city_block` against each existing
    observation: masked cells contribute nothing and each row's sum is
    rescaled by ``p / p_present`` exactly as the scalar metric does.
    """
    present = ~(np.isnan(z_new)[None, :] | np.isnan(z))
    counts = present.sum(axis=1)
    if np.any(counts == 0):
        raise ValueError("observations share no present variables")
    diffs = np.where(present, np.abs(z - z_new[None, :]), 0.0)
    return diffs.sum(axis=1) * (z.shape[1] / counts)


def project_observation(
    result: CoplotResult,
    values,
    *,
    n_starts: int = 4,
    seed: SeedLike = 0,
) -> Tuple[np.ndarray, float]:
    """Place a new observation into a fitted map.

    The new row is normalized with the *original* analysis' means and
    deviations, its city-block dissimilarities to the existing
    observations are computed, and a position minimizing the (metric)
    stress against the existing points is found by local optimization from
    several starts (nearest-neighbour anchored plus random).

    Parameters
    ----------
    result:
        A fitted :class:`~repro.coplot.model.CoplotResult`.
    values:
        The new observation's raw values, in ``result.signs`` order
        (NaN for unknown).

    Returns
    -------
    (position, stress):
        The 2-D coordinates and the residual stress-1 of the placement
        (0 = the new dissimilarities embed perfectly).
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(result.signs),):
        raise ValueError(
            f"expected {len(result.signs)} values (order: {result.signs}), "
            f"got shape {values.shape}"
        )
    means, stds = _column_norms(result.y)
    z_new = (values - means) / stds
    dissim = _dissim_to_rows(z_new, result.z)

    coords = result.coords

    def stress(p: np.ndarray) -> float:
        d = np.linalg.norm(coords - p[None, :], axis=1)
        denom = float(np.sum(d**2))
        if denom == 0:
            return float(np.sum(dissim**2))
        # Allow an optimal uniform scale between dissimilarities and map
        # distances (the map's scale is arbitrary).
        alpha = float(d @ dissim) / denom
        return float(np.sum((dissim - alpha * d) ** 2) / np.sum(dissim**2))

    rng = as_generator(seed)
    starts: List[np.ndarray] = [coords[int(np.argmin(dissim))]]
    span = coords.max(axis=0) - coords.min(axis=0)
    for _ in range(max(n_starts - 1, 0)):
        starts.append(
            coords.mean(axis=0) + rng.normal(scale=0.5, size=2) * np.maximum(span, 1e-9)
        )
    from scipy import optimize  # deferred: ~0.25 s, and no experiment or analysis projects

    best_pos: Optional[np.ndarray] = None
    best_val = np.inf
    for start in starts:
        res = optimize.minimize(stress, start, method="Nelder-Mead")
        if res.fun < best_val:
            best_val = float(res.fun)
            best_pos = np.asarray(res.x)
    assert best_pos is not None
    return best_pos, float(np.sqrt(max(best_val, 0.0)))


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a bootstrap stability analysis."""

    labels: List[str]
    reference: np.ndarray  #: the full-data map
    positional_spread: np.ndarray  #: per-observation RMS displacement
    mean_disparity: float  #: mean Procrustes disparity of replicates
    n_boot: int

    def least_stable(self, k: int = 3) -> List[str]:
        """The k observations that move the most across replicates."""
        order = np.argsort(self.positional_spread)[::-1]
        return [self.labels[i] for i in order[:k]]


def bootstrap_stability(
    y,
    *,
    labels: Optional[Sequence[str]] = None,
    signs: Optional[Sequence[str]] = None,
    n_boot: int = 20,
    coplot: Optional[Coplot] = None,
    seed: SeedLike = 0,
) -> StabilityReport:
    """Bootstrap the map over variables.

    Each replicate resamples the variable columns with replacement, refits
    Co-plot, aligns the replicate map onto the full-data map by Procrustes,
    and records every observation's displacement.  Every replicate's
    restarts run as rows of one lockstep SMACOF batch and all replicate
    maps are aligned in one vectorized Procrustes pass; the report equals
    refitting the replicates one at a time through :meth:`Coplot.fit`
    (the oracle in ``tests/oracles/bootstrap.py``).

    Returns
    -------
    StabilityReport
        ``positional_spread[i]`` is observation i's RMS displacement in
        units of the reference map (whose RMS point radius is ~1 after
        internal normalization).
    """
    mat = check_2d(y, "y")
    n, p = mat.shape
    if n_boot < 2:
        raise ValueError(f"n_boot must be >= 2, got {n_boot}")
    cp = coplot if coplot is not None else Coplot(n_init=2)
    if signs is None:
        signs = [f"v{j}" for j in range(p)]
    reference = cp.fit(mat, labels=labels, signs=signs)
    ref_coords = reference.coords
    # Normalize the reference scale so spreads are comparable across data.
    ref_scale = float(np.sqrt(np.mean(np.sum(ref_coords**2, axis=1))))
    if ref_scale == 0:
        ref_scale = 1.0

    rng = as_generator(seed)
    with obs_span("bootstrap.stability", n_boot=n_boot, n=n, p=p):
        # Every column resample is drawn before any replicate is fitted;
        # a refit never touches this generator, so the resamples are the
        # ones a replicate-at-a-time loop would draw.  Arrows, which
        # stability never reads, are skipped.
        cols_per_boot = [rng.integers(0, p, size=p) for _ in range(n_boot)]
        maps = cp._maps([cp._dissimilarity(mat[:, cols])[1] for cols in cols_per_boot])
        boot_coords = np.stack([m.coords for m in maps])
        aligned = procrustes_align_batch(ref_coords, boot_coords)
        displacements = (
            np.linalg.norm(aligned - ref_coords[None, :, :], axis=2) / ref_scale
        )
        a_c = ref_coords - ref_coords.mean(axis=0)
        norm = float(np.sum(a_c**2))
        disparities = []
        for b in range(n_boot):
            if norm == 0:
                disparities.append(0.0)
                continue
            resid = float(np.sum((a_c - (aligned[b] - ref_coords.mean(axis=0))) ** 2))
            disparities.append(min(max(resid / norm, 0.0), 1.0))

    return StabilityReport(
        labels=list(reference.labels),
        reference=ref_coords,
        positional_spread=np.sqrt((displacements**2).mean(axis=0)),
        mean_disparity=float(np.mean(disparities)),
        n_boot=n_boot,
    )
