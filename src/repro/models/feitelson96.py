"""Feitelson's 1996 workload model (JSSPP 1996, "Packing schemes for gang
scheduling").

Three defining features, per the paper's Section 7 description:

1. a hand-tailored discrete distribution of job sizes that emphasizes
   small jobs and powers of two;
2. runtimes correlated with job size (larger jobs run longer), realised as
   a two-stage hyper-exponential whose long-branch probability grows with
   the size;
3. repetition of job executions — each distinct job is run a random number
   of times.  As a *pure* model (no scheduler feedback) each repetition is
   resubmitted immediately when the previous execution terminates, exactly
   as the paper states it handled the model.

The numeric constants are calibrated approximations of the published
hand-tailored tables (full tables are not available offline; see
DESIGN.md §4.3): a harmonic ``1/s`` size weight with a flat multiplier on
powers of two reproduces the documented emphasis, and the runtime scales
put the model where Figure 4 places it, near the interactive/NASA
workloads.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import WorkloadModel
from repro.stats.distributions import Discrete
from repro.util.validation import check_positive

__all__ = ["Feitelson96Model", "harmonic_pow2_sizes", "repetition_distribution"]


def harmonic_pow2_sizes(
    machine_procs: int, *, alpha: float = 0.95, pow2_factor: float = 2.5
) -> Discrete:
    """The hand-tailored size distribution: weight ``s^-alpha``, multiplied
    by *pow2_factor* when s is a power of two (or 1)."""
    if machine_procs < 1:
        raise ValueError(f"machine_procs must be >= 1, got {machine_procs}")
    sizes = np.arange(1, machine_procs + 1, dtype=float)
    weights = sizes ** (-alpha)
    is_pow2 = (sizes.astype(int) & (sizes.astype(int) - 1)) == 0
    weights[is_pow2] *= pow2_factor
    return Discrete(sizes, weights / weights.sum())


def repetition_distribution(*, order: float = 2.5, max_repeats: int = 64) -> Discrete:
    """Distribution of the number of executions per distinct job: a Zipf-like
    harmonic distribution of the given order (most jobs run once, a few run
    many times)."""
    check_positive(order, "order")
    if max_repeats < 1:
        raise ValueError(f"max_repeats must be >= 1, got {max_repeats}")
    r = np.arange(1, max_repeats + 1, dtype=float)
    weights = r ** (-order)
    return Discrete(r, weights / weights.sum())


class Feitelson96Model(WorkloadModel):
    """The 1996 model.

    Parameters
    ----------
    machine_procs:
        Machine size.
    runtime_short_mean, runtime_long_mean:
        Means of the two exponential runtime branches (seconds).
    p_long_base, p_long_slope:
        The long-branch probability for a job of size s is
        ``clip(p_long_base + p_long_slope * log2(s)/log2(P), 0.05, 0.95)`` —
        the documented positive size/runtime correlation.
    repeat_order, max_repeats:
        Shape of the repeated-execution count distribution.
    mean_interarrival:
        Mean exponential inter-arrival time of *distinct* jobs.
    n_users:
        Size of the synthetic user population (for the U variable).
    """

    name = "Feitelson96"

    def __init__(
        self,
        machine_procs: int = 128,
        *,
        size_alpha: float = 0.95,
        pow2_factor: float = 2.5,
        runtime_short_mean: float = 40.0,
        runtime_long_mean: float = 2000.0,
        p_long_base: float = 0.15,
        p_long_slope: float = 0.45,
        repeat_order: float = 2.5,
        max_repeats: int = 64,
        mean_interarrival: float = 90.0,
        n_users: int = 64,
    ):
        super().__init__(machine_procs)
        self.sizes = harmonic_pow2_sizes(
            machine_procs, alpha=size_alpha, pow2_factor=pow2_factor
        )
        self.runtime_short_mean = check_positive(runtime_short_mean, "runtime_short_mean")
        self.runtime_long_mean = check_positive(runtime_long_mean, "runtime_long_mean")
        self.p_long_base = float(p_long_base)
        self.p_long_slope = float(p_long_slope)
        self.repeats = repetition_distribution(order=repeat_order, max_repeats=max_repeats)
        self.mean_interarrival = check_positive(mean_interarrival, "mean_interarrival")
        if n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {n_users}")
        self.n_users = int(n_users)

    # -- pieces ----------------------------------------------------------
    def _p_long(self, sizes: np.ndarray) -> np.ndarray:
        denom = max(np.log2(self.machine_procs), 1.0)
        p = self.p_long_base + self.p_long_slope * np.log2(sizes) / denom
        return np.clip(p, 0.05, 0.95)

    def _draw_runtime(self, sizes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        p_long = self._p_long(sizes)
        long_branch = rng.random(sizes.shape[0]) < p_long
        means = np.where(long_branch, self.runtime_long_mean, self.runtime_short_mean)
        return rng.exponential(means)

    # -- generation --------------------------------------------------------
    def _draw_blocks(self, n_jobs: int, rng: np.random.Generator) -> dict:
        """Draw distinct-job attributes in bulk until they cover *n_jobs*.

        Block sizes are a deterministic function of the remaining deficit
        and the mean repetition count, so the per-job oracle loop in
        ``tests/oracles/models.py`` consumes the RNG identically; the
        concatenated per-distinct-job arrays (gap, size, repeat count,
        runtime, user) are what the stream is assembled from.
        """
        mean_rep = max(float(np.sum(self.repeats.values * self.repeats.probs)), 1.0)
        gaps, sizes, reps, runtimes, users = [], [], [], [], []
        total = 0
        while total < n_jobs:
            m = max(16, int((n_jobs - total) / mean_rep * 1.1) + 1)
            gaps.append(rng.exponential(self.mean_interarrival, m))
            block_sizes = self.sizes.sample(m, rng)
            sizes.append(block_sizes)
            block_reps = self.repeats.sample(m, rng).astype(np.int64)
            reps.append(block_reps)
            runtimes.append(self._draw_runtime(block_sizes, rng))
            users.append(rng.integers(self.n_users, size=m))
            total += int(block_reps.sum())
        return {
            "gaps": np.concatenate(gaps),
            "sizes": np.concatenate(sizes),
            "reps": np.concatenate(reps),
            "runtimes": np.concatenate(runtimes),
            "users": np.concatenate(users),
        }

    def _generate_arrays(self, n_jobs: int, rng: np.random.Generator) -> dict:
        b = self._draw_blocks(n_jobs, rng)
        cum = np.cumsum(b["reps"])
        # Number of distinct jobs needed to cover the stream; the last one's
        # repetitions are truncated at the n_jobs boundary.
        n_distinct = int(np.searchsorted(cum, n_jobs, side="left")) + 1
        whens = np.cumsum(b["gaps"][:n_distinct])
        reps_used = b["reps"][:n_distinct].copy()
        reps_used[-1] -= int(cum[n_distinct - 1]) - n_jobs

        idx = np.repeat(np.arange(n_distinct), reps_used)
        starts = np.concatenate(([0], np.cumsum(reps_used)[:-1]))
        k = np.arange(n_jobs) - np.repeat(starts, reps_used)
        runtimes = b["runtimes"][:n_distinct]
        return {
            "submit_time": whens[idx] + k * runtimes[idx],
            "run_time": runtimes[idx],
            "used_procs": b["sizes"][:n_distinct].astype(np.int64)[idx],
            "user_id": b["users"][:n_distinct][idx],
            "executable_id": idx + 1,
            "wait_time": np.zeros(n_jobs),
        }
