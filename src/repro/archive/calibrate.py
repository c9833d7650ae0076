"""Calibration helpers for the log synthesizer.

Each production workload must reproduce its published order statistics
(median, 90% interval) and load.  These helpers solve the marginal
distributions from exactly those targets:

* :func:`solve_lognormal_marginal` — the unique log-normal with a given
  median and central-interval width (runtimes, inter-arrivals);
* :func:`solve_size_distribution` — a discrete job-size distribution on the
  machine's allocatable sizes whose order statistics approximate the
  published (Pm, Pi) pair, built by projecting a matched log-normal onto
  the support;
* :func:`scale_tail_to_mean` — adjust a sample's *mean* without touching
  its median or 90% interval, by rescaling only the values beyond the 95th
  percentile.  This is how the synthesizer hits the published runtime load
  (a mean-based quantity) while keeping the order statistics pinned.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.archive.machines import Machine
from repro.stats.distributions import Discrete, LogNormal
from repro.util.validation import check_1d, check_positive, check_probability

__all__ = [
    "solve_lognormal_marginal",
    "solve_size_distribution",
    "scale_tail_to_mean",
]


def solve_lognormal_marginal(
    median: float, interval: float, *, coverage: float = 0.9
) -> LogNormal:
    """Log-normal hitting the published (median, interval) pair exactly."""
    return LogNormal.from_median_interval(median, interval, coverage)


def _allocatable_sizes(machine: Machine) -> np.ndarray:
    """The sizes the machine can actually allocate."""
    if machine.power_of_two_sizes:
        sizes = []
        s = max(machine.min_size, 1)
        # Round min_size up to a power of two if it is not one.
        p = 1
        while p < s:
            p *= 2
        while p <= machine.processors:
            sizes.append(p)
            p *= 2
        if not sizes:
            sizes = [machine.processors]
        return np.array(sizes, dtype=float)
    return np.arange(
        max(machine.min_size, 1), machine.processors + 1, dtype=float
    )


def solve_size_distribution(
    machine: Machine,
    median: float,
    interval: float,
    *,
    coverage: float = 0.9,
) -> Discrete:
    """Discrete job-size distribution matching the published order stats.

    A log-normal with the target (median, interval) is projected onto the
    machine's allocatable sizes: each support point receives the log-normal
    probability mass of its cell, with cell boundaries at the geometric
    midpoints between neighbouring sizes.  On power-of-two machines the
    support is exactly the legal partition sizes — reproducing, e.g., the
    LANL batch workload's pile-up at 32-processor minimum partitions.
    """
    check_positive(median, "median")
    check_positive(interval, "interval")
    sizes = _allocatable_sizes(machine)
    if sizes.size == 1:
        return Discrete(sizes, np.ones(1))
    # Clip the target median into the feasible support range.
    median = float(np.clip(median, sizes[0], sizes[-1]))
    base = LogNormal.from_median_interval(median, interval, coverage)
    # Geometric midpoints as cell boundaries.
    mids = np.sqrt(sizes[:-1] * sizes[1:])
    bounds = np.concatenate([[0.0], mids, [np.inf]])
    upper = np.asarray(base.cdf(bounds[1:]), dtype=float)
    lower = np.asarray(base.cdf(bounds[:-1]), dtype=float)
    masses = np.maximum(upper - lower, 0.0)
    if masses.sum() <= 0:  # pragma: no cover - cdf covers the line
        masses = np.ones_like(sizes)
    return Discrete(sizes, masses / masses.sum())


def scale_tail_to_mean(
    values,
    target_mean: float,
    *,
    tail_q: float = 0.95,
) -> Tuple[np.ndarray, bool]:
    """Rescale the upper tail so the sample mean hits *target_mean*.

    Only values strictly above the *tail_q* sample quantile are changed,
    via the affine map ``v -> boundary + f (v - boundary)`` with a common
    ``f >= 0`` solving the mean.  Because transformed values never cross
    the boundary, every quantile at or below *tail_q* — in particular the
    median and the 90% interval — is unchanged and the sample order is
    preserved.  ``f = 0`` (the whole tail collapsed onto the boundary) is
    the feasibility floor; when it binds, the returned flag is False and
    the mean lands as close as the constraint allows.

    Returns
    -------
    (scaled, exact):
        The adjusted copy and whether the target mean was met exactly.
    """
    arr = check_1d(values, "values", min_len=2).copy()
    check_positive(target_mean, "target_mean")
    check_probability(tail_q, "tail_q")
    n = arr.shape[0]
    boundary = float(np.quantile(arr, tail_q))
    tail = arr > boundary
    n_tail = int(tail.sum())
    if n_tail == 0:
        return arr, math.isclose(float(arr.mean()), target_mean, rel_tol=1e-9)
    sum_body = float(arr[~tail].sum())
    sum_tail = float(arr[tail].sum())
    excess = sum_tail - boundary * n_tail  # > 0 since tail values > boundary
    needed = target_mean * n - sum_body - boundary * n_tail
    exact = True
    if needed < 0:
        needed = 0.0
        exact = False
    factor = needed / excess if excess > 0 else 0.0
    arr[tail] = boundary + factor * (arr[tail] - boundary)
    return arr, exact
