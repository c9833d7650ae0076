"""Procrustes alignment of Co-plot maps.

MDS output is only defined up to rotation, reflection, uniform scaling and
translation.  To compare two maps of the same observations — e.g. checking
the stability of variable clusters across runs, or that Figure 2's map is a
"zoom in" of Figure 4's — the second map is first aligned onto the first by
orthogonal Procrustes analysis.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_2d

__all__ = ["procrustes_align", "procrustes_align_batch", "procrustes_disparity"]


def procrustes_align(reference, target) -> np.ndarray:
    """Rotate/reflect and scale *target* onto *reference*.

    Both are n x dim configurations over the same n observations in the
    same row order.  Returns the transformed copy of *target* minimizing
    the Frobenius distance to *reference*.
    """
    a = check_2d(reference, "reference")
    b = check_2d(target, "target")
    if a.shape != b.shape:
        raise ValueError(f"configurations must share a shape, got {a.shape} vs {b.shape}")
    if a.shape[0] < 2:
        raise ValueError("need at least 2 points to align")

    a_c = a - a.mean(axis=0)
    b_c = b - b.mean(axis=0)
    norm_b = np.linalg.norm(b_c)
    if norm_b == 0:
        return np.tile(a.mean(axis=0), (a.shape[0], 1))

    u, svals, vt = np.linalg.svd(a_c.T @ b_c)
    rotation = u @ vt
    scale = svals.sum() / (norm_b**2)
    return scale * b_c @ rotation.T + a.mean(axis=0)


def procrustes_align_batch(reference, targets) -> np.ndarray:
    """Align a (k, n, dim) stack of configurations onto one reference.

    Vectorized counterpart of mapping :func:`procrustes_align` over the
    first axis (the bootstrap engine aligns every replicate map at once);
    produces the same aligned configurations, slice for slice.
    """
    a = check_2d(reference, "reference")
    b = np.asarray(targets, dtype=float)
    if b.ndim != 3 or b.shape[1:] != a.shape:
        raise ValueError(
            f"targets must be (k, {a.shape[0]}, {a.shape[1]}), got {b.shape}"
        )
    if a.shape[0] < 2:
        raise ValueError("need at least 2 points to align")

    a_mean = a.mean(axis=0)
    a_c = a - a_mean
    b_c = b - b.mean(axis=1, keepdims=True)
    # Per-slice Frobenius norms via the scalar routine: identical floating
    # summation to the one-at-a-time path, and k is small.
    norm_b = np.array([np.linalg.norm(b_c[j]) for j in range(b.shape[0])])
    degenerate = norm_b == 0

    u, svals, vt = np.linalg.svd(np.matmul(a_c.T[None, :, :], b_c))
    rotation = np.matmul(u, vt)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = svals.sum(axis=1) / (norm_b**2)
    out = (
        scale[:, None, None] * np.matmul(b_c, rotation.transpose(0, 2, 1))
        + a_mean
    )
    if degenerate.any():
        # A collapsed replicate (all points coincide) aligns onto the
        # reference centroid, as in the scalar path.
        out[degenerate] = np.tile(a_mean, (a.shape[0], 1))
    return out


def procrustes_disparity(reference, target) -> float:
    """Normalized residual after alignment, in [0, 1].

    0 means the configurations are identical up to rotation, reflection,
    uniform scaling and translation;
    1 means no shared structure.  Defined as ``||A' - B'||² / ||A'||²``
    with A' the centred reference and B' the aligned target.
    """
    a = check_2d(reference, "reference")
    aligned = procrustes_align(a, target)
    a_c = a - a.mean(axis=0)
    norm = float(np.sum(a_c**2))
    if norm == 0:
        return 0.0
    resid = float(np.sum((a_c - (aligned - a.mean(axis=0))) ** 2))
    return min(max(resid / norm, 0.0), 1.0)
