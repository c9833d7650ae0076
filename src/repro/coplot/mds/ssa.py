"""Guttman's Smallest Space Analysis (SSA).

The MDS flavour the paper uses (its reference [12]): a nonmetric mapping
judged by the coefficient of alienation, with Guttman's rank-image
transform restoring the dissimilarity order each iteration.  Realised here
on top of the SMACOF engine, with restarts selected by alienation — the
smallest-Θ configuration is exactly what the original SSA program reports.
"""

from __future__ import annotations

from repro.coplot.mds.base import MDSResult
from repro.coplot.mds.smacof import smacof
from repro.util.rng import SeedLike

__all__ = ["smallest_space_analysis"]


def smallest_space_analysis(
    s,
    dim: int = 2,
    *,
    n_init: int = 8,
    max_iter: int = 500,
    tol: float = 1e-10,
    transform: str = "rank-image",
    seed: SeedLike = 0,
) -> MDSResult:
    """Map a dissimilarity matrix into ``dim`` dimensions by SSA.

    Parameters mirror :func:`repro.coplot.mds.smacof.smacof`; the defaults
    (rank-image transform, alienation-selected restarts, fixed seed) make
    repeated runs on the same matrix deterministic, which the experiment
    harness relies on.

    Returns
    -------
    MDSResult
        With ``alienation`` the paper's goodness-of-fit Θ: below 0.15 is
        considered good.
    """
    return smacof(
        s,
        dim=dim,
        transform=transform,
        n_init=n_init,
        max_iter=max_iter,
        tol=tol,
        seed=seed,
    )
