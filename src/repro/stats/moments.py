"""Moment utilities and moment-matching fitters.

Jann et al. (1997) model runtimes and inter-arrival times with hyper-Erlang
distributions of common order, choosing parameters so the first three
moments match the observed data within each job-size range.
:func:`fit_hyper_erlang` reimplements that procedure: for each candidate
common order *k* the two-branch mixture has a closed-form three-moment
solution (it is the classic two-point Stieltjes moment problem on the
branch means); by default the smallest feasible order is returned, keeping
the branches as variable as the heavy-tailed data demands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.stats.distributions import HyperErlang
from repro.util.validation import check_1d, check_positive

__all__ = [
    "sample_moments",
    "fit_hyper_erlang",
    "HyperErlangFit",
]


def sample_moments(x, k: int = 3) -> np.ndarray:
    """First *k* raw sample moments ``E[X^j]`` for ``j = 1..k``."""
    arr = check_1d(x, "x", min_len=1)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return np.array([float(np.mean(arr**j)) for j in range(1, k + 1)])


@dataclass(frozen=True)
class HyperErlangFit:
    """Result of a three-moment hyper-Erlang fit."""

    distribution: HyperErlang
    order: int
    target_moments: np.ndarray
    achieved_moments: np.ndarray

    @property
    def relative_errors(self) -> np.ndarray:
        """Per-moment relative error of the fit (should be ~0)."""
        return np.abs(self.achieved_moments - self.target_moments) / np.abs(
            self.target_moments
        )


def _two_point_from_moments(mu1: float, mu2: float, mu3: float):
    """Solve the two-point moment problem: find weights (p, 1-p) on support
    (x1, x2) with the given first three power moments.  Returns ``None``
    when infeasible (negative support or weight outside [0, 1])."""
    denom = mu2 - mu1 * mu1
    if denom <= 0:
        return None
    a = (mu3 - mu1 * mu2) / denom
    b = (mu1 * mu3 - mu2 * mu2) / denom
    disc = a * a - 4.0 * b
    if disc < 0:
        return None
    root = math.sqrt(disc)
    x1 = (a + root) / 2.0
    x2 = (a - root) / 2.0
    if x1 <= 0 or x2 <= 0:
        return None
    if math.isclose(x1, x2, rel_tol=1e-12):
        return None
    p = (mu1 - x2) / (x1 - x2)
    if not 0.0 <= p <= 1.0:
        return None
    return p, x1, x2


def fit_hyper_erlang(
    moments_or_data,
    *,
    order: "str | int" = "smallest",
    max_order: int = 64,
    from_data: Optional[bool] = None,
) -> HyperErlangFit:
    """Fit a two-branch hyper-Erlang of common order by 3-moment matching.

    Parameters
    ----------
    moments_or_data:
        Either a length-3 sequence of raw moments ``[m1, m2, m3]`` or a data
        sample (decided by *from_data*, or by length when ``None``:
        length != 3 means data).
    order:
        ``"smallest"`` (default) selects the smallest feasible common order,
        which keeps each branch maximally variable — the right choice for
        the heavy-tailed runtime/inter-arrival data of this domain, where a
        high order would collapse the mixture into two near-deterministic
        spikes that match three moments but nothing else of the shape.
        ``"largest"`` selects the largest feasible order (the smoothest
        fit), and an integer forces that specific order.
    max_order:
        Search bound for the string modes.

    Returns
    -------
    HyperErlangFit

    Raises
    ------
    ValueError
        If not even ``k = 1`` (the hyper-exponential case) is feasible —
        this happens when the sample's CV is below 1 and the third moment is
        inconsistent with any 2-branch mixture; callers should fall back to
        a plain Erlang/exponential fit.
    """
    arr = np.asarray(moments_or_data, dtype=float)
    if from_data is None:
        from_data = arr.ndim != 1 or arr.shape[0] != 3
    if from_data:
        m1, m2, m3 = sample_moments(arr, 3)
    else:
        m1, m2, m3 = (float(v) for v in arr)
    for v, name in ((m1, "m1"), (m2, "m2"), (m3, "m3")):
        check_positive(v, name)

    if isinstance(order, (int, np.integer)):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        candidates: Sequence[int] = [int(order)]
    elif order == "smallest":
        candidates = range(1, max_order + 1)
    elif order == "largest":
        candidates = range(max_order, 0, -1)
    else:
        raise ValueError(f"order must be 'smallest', 'largest' or an int, got {order!r}")

    target = np.array([m1, m2, m3])
    for k in candidates:
        c1 = float(k)
        c2 = float(k * (k + 1))
        c3 = float(k * (k + 1) * (k + 2))
        sol = _two_point_from_moments(m1 / c1, m2 / c2, m3 / c3)
        if sol is None:
            continue
        p, x1, x2 = sol
        dist = HyperErlang([p, 1.0 - p], k, [1.0 / x1, 1.0 / x2])
        achieved = np.array([dist.moment(j) for j in (1, 2, 3)])
        return HyperErlangFit(
            distribution=dist, order=k, target_moments=target, achieved_moments=achieved
        )
    raise ValueError(
        "no feasible hyper-Erlang order: the moment triple "
        f"({m1:g}, {m2:g}, {m3:g}) admits no two-branch mixture"
    )
