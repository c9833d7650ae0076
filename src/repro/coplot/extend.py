"""An extension on top of a fitted Co-plot: map stability.

:func:`bootstrap_stability` quantifies how stable a map is under
resampling of the *variables* (Co-plot's sampling unit: few observations,
many variables), reporting per-observation positional spread after
Procrustes alignment.  The paper reports cluster stability qualitatively
("in some of the other runs the third cluster disappears"); this makes it
a number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.coplot.model import Coplot
from repro.coplot.procrustes import procrustes_align_batch
from repro.obs.spans import span as obs_span
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_2d

__all__ = ["bootstrap_stability", "StabilityReport"]


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
