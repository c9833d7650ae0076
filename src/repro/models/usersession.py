"""User-session workload model — the paper's multi-class future work.

Section 10 lists "user or multi-class modeling attributes [2]" as the
next modeling step, and Section 9 conjectures that "most 'human generated'
workloads, in which tens or more of people are involved in creating, will
exhibit self-similarity to some degree."  This model realises both ideas:

* the workload is generated *per user*: each of a population of users
  alternates between idle periods and working **sessions**;
* within a session the user submits jobs sequentially with think times
  after each completion (genuine feedback, unlike the open arrival
  processes of the 1990s models);
* each user carries their own job template (characteristic size and
  runtime scale), giving the multi-class structure and the repeated-work
  patterns of real logs (low normalized users/executables);
* when session durations are **heavy-tailed** (Pareto-like), the
  superposition of users' ON/OFF processes is long-range dependent — the
  classic Willinger/Taqqu explanation of self-similar traffic.  With
  light-tailed sessions the same machinery produces an ordinary
  short-range-dependent stream, so the model doubles as a demonstration
  of *why* the paper found production logs self-similar.

Every user owns an independent child RNG stream
(:func:`repro.util.rng.spawn_children`), and :meth:`_materialize_users`
grows each user's timeline in session chunks until the first *n_jobs*
events of the superposition are fully materialized (each user is capped
at *n_jobs* own jobs, which both bounds heavy-tailed session draws and
guarantees termination).  The stream is then assembled from per-user
``cumsum`` timelines and one global ``lexsort``.  The scalar version of
that assembly — per-user accumulation loops merged through a heap — is
the bit-for-bit equivalence oracle in ``tests/oracles/models.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.models.base import WorkloadModel
from repro.stats.distributions import LogNormal
from repro.util.rng import spawn_children
from repro.util.validation import check_positive

__all__ = ["UserProfile", "UserSessionModel"]


@dataclass(frozen=True)
class UserProfile:
    """One user's behavioural template."""

    user_id: int
    runtime_scale: float  #: multiplies the base runtime distribution
    size: int  #: the user's characteristic job size
    executable_id: int


class UserSessionModel(WorkloadModel):
    """Closed, session-structured multi-user workload generator.

    Parameters
    ----------
    machine_procs:
        Machine size.
    n_users:
        Population size ("tens or more of people").
    mean_idle:
        Mean idle (OFF) time between a user's sessions, seconds.
    session_tail:
        Pareto tail index of the session length in *jobs*.  Values in
        (1, 2) give infinite-variance session lengths and hence an LRD
        aggregate (the self-similar regime); values well above 2 give a
        short-range-dependent stream.
    mean_session_jobs:
        Mean number of jobs per session.
    base_runtime_median, base_runtime_interval:
        The base runtime marginal; each user scales it by a log-normal
        personal factor.
    mean_think:
        Mean think time between a job's completion and the next submit
        within a session.
    size_spread:
        Spread of the per-user characteristic job sizes (log2 std).
    """

    name = "UserSession"

    def __init__(
        self,
        machine_procs: int = 128,
        *,
        n_users: int = 64,
        mean_idle: float = 6.0 * 3600.0,
        session_tail: float = 1.5,
        mean_session_jobs: float = 8.0,
        base_runtime_median: float = 120.0,
        base_runtime_interval: float = 8000.0,
        mean_think: float = 180.0,
        size_spread: float = 1.5,
    ):
        super().__init__(machine_procs)
        if n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {n_users}")
        self.n_users = int(n_users)
        self.mean_idle = check_positive(mean_idle, "mean_idle")
        if session_tail <= 1.0:
            raise ValueError(
                f"session_tail must exceed 1 (finite mean), got {session_tail}"
            )
        self.session_tail = float(session_tail)
        self.mean_session_jobs = check_positive(mean_session_jobs, "mean_session_jobs")
        self.base_runtime = LogNormal.from_median_interval(
            base_runtime_median, base_runtime_interval
        )
        self.mean_think = check_positive(mean_think, "mean_think")
        self.size_spread = check_positive(size_spread, "size_spread")

    # -- user population ---------------------------------------------------
    def _make_profiles(self, rng: np.random.Generator) -> List[UserProfile]:
        max_log2 = math.log2(self.machine_procs) if self.machine_procs > 1 else 0.0
        log2_sizes = np.clip(
            rng.normal(max_log2 / 3.0, self.size_spread, self.n_users), 0.0, max_log2
        )
        scales = rng.lognormal(0.0, 0.6, self.n_users)
        return [
            UserProfile(
                user_id=uid,
                runtime_scale=float(scales[uid]),
                size=int(round(2.0 ** float(log2_sizes[uid]))),
                executable_id=uid,  # one dominant code per user
            )
            for uid in range(self.n_users)
        ]

    def _session_lengths(self, u: np.ndarray) -> np.ndarray:
        """Pareto-distributed session lengths in jobs (minimum 1), scaled so
        the mean matches ``mean_session_jobs``."""
        alpha = self.session_tail
        # Pareto(xm=1): mean = alpha/(alpha-1); rescale to the target mean.
        xm = self.mean_session_jobs * (alpha - 1.0) / alpha
        draws = xm * (1.0 - u) ** (-1.0 / alpha)
        return np.maximum(1, np.round(draws)).astype(np.int64)

    # -- shared driver -----------------------------------------------------
    def _draw_user_chunk(
        self, child: np.random.Generator, n_sessions: int, cap: int, scale: float
    ) -> tuple:
        """One chunk of a user's stream: session lengths, then the per-job
        and per-session draws sized by the capped job total.

        Returns ``(lengths, runtimes, thinks, idles)`` with the last session
        truncated so the chunk contributes at most *cap* jobs.
        """
        lengths = self._session_lengths(child.random(n_sessions))
        cum = np.cumsum(lengths)
        if int(cum[-1]) >= cap:
            cut = int(np.searchsorted(cum, cap, side="left"))
            lengths = lengths[: cut + 1].copy()
            lengths[-1] = cap - (int(cum[cut - 1]) if cut else 0)
        total = int(lengths.sum())
        runtimes = self.base_runtime.sample(total, child) * scale
        thinks = child.exponential(self.mean_think, total)
        idles = child.exponential(self.mean_idle, n_sessions)[: lengths.size]
        return lengths, runtimes, thinks, idles

    @staticmethod
    def _timeline(
        lengths: np.ndarray,
        runtimes: np.ndarray,
        thinks: np.ndarray,
        idles: np.ndarray,
    ) -> np.ndarray:
        """Vectorized submit times of one user's job sequence.

        The first job of session s submits an idle period after the
        previous job completes (``idles[0]`` from t=0 for the first); each
        later job submits a think time after the previous job completes.
        """
        total = runtimes.size
        gaps = thinks.copy()
        ends = np.cumsum(lengths) - 1
        gaps[ends[:-1]] = idles[1:]
        deltas = np.empty(total)
        deltas[0] = idles[0]
        deltas[1:] = runtimes[:-1] + gaps[:-1]
        return np.cumsum(deltas)

    def _materialize_users(
        self, n_jobs: int, rng: np.random.Generator, scales: List[float]
    ) -> list:
        """Grow every user's stream until the global first *n_jobs* events
        are materialized.

        Each user draws from an independent child stream, so per-user
        consumption never interleaves; the coverage loop keeps extending
        users (in session chunks) until the events at or before the
        earliest per-user horizon cover *n_jobs*.  A user materializes at
        most *n_jobs* own jobs: a capped user's horizon covers all of its
        events, which both bounds heavy-tailed sessions and makes the loop
        terminate.
        """
        children = spawn_children(rng, self.n_users)
        per_session = self.mean_session_jobs
        first_sessions = max(4, int(n_jobs / (self.n_users * per_session)) + 2)
        users = []
        for uid in range(self.n_users):
            users.append(
                {
                    "child": children[uid],
                    "lengths": [],
                    "runtimes": [],
                    "thinks": [],
                    "idles": [],
                    "total": 0,
                }
            )
        self._extend_users(users, first_sessions, n_jobs, scales)
        while True:
            timelines = [
                self._timeline(
                    np.concatenate(u["lengths"]),
                    np.concatenate(u["runtimes"]),
                    np.concatenate(u["thinks"]),
                    np.concatenate(u["idles"]),
                )
                for u in users
            ]
            horizon = min(float(t[-1]) for t in timelines)
            covered = sum(
                int(np.searchsorted(t, horizon, side="right")) for t in timelines
            )
            if covered >= n_jobs:
                for u, t in zip(users, timelines):
                    u["submits"] = t
                return users
            deficit = n_jobs - covered
            active = sum(1 for u in users if u["total"] < n_jobs)
            grow = max(4, int(deficit / (max(active, 1) * per_session)) + 2)
            self._extend_users(users, grow, n_jobs, scales)

    def _extend_users(
        self, users: list, n_sessions: int, n_jobs: int, scales: list
    ) -> None:
        for uid, u in enumerate(users):
            cap = n_jobs - u["total"]
            if cap <= 0:
                continue
            lengths, runtimes, thinks, idles = self._draw_user_chunk(
                u["child"], n_sessions, cap, scales[uid]
            )
            u["lengths"].append(lengths)
            u["runtimes"].append(runtimes)
            u["thinks"].append(thinks)
            u["idles"].append(idles)
            u["total"] += int(lengths.sum())

    def _prepare(self, n_jobs: int, rng: np.random.Generator) -> tuple:
        profiles = self._make_profiles(rng)
        scales = [p.runtime_scale for p in profiles]
        return profiles, self._materialize_users(n_jobs, rng, scales)

    # -- generation --------------------------------------------------------
    def _generate_arrays(self, n_jobs: int, rng: np.random.Generator) -> dict:
        profiles, users = self._prepare(n_jobs, rng)
        all_submit = np.concatenate([u["submits"] for u in users])
        all_runtime = np.concatenate(
            [np.concatenate(u["runtimes"]) for u in users]
        )
        all_think = np.concatenate([np.concatenate(u["thinks"]) for u in users])
        counts = [u["submits"].size for u in users]
        all_uid = np.repeat(np.arange(self.n_users, dtype=np.int64), counts)
        sizes = np.array([p.size for p in profiles], dtype=np.int64)

        # Global merge: submit ascending, ties by user id then (stable)
        # within-user submission order — the pop order of the oracle's
        # heap merge.
        order = np.lexsort((all_uid, all_submit))[:n_jobs]
        uid = all_uid[order]
        return {
            "submit_time": all_submit[order],
            "run_time": all_runtime[order],
            "used_procs": np.clip(sizes[uid], 1, self.machine_procs),
            "user_id": uid,
            "executable_id": uid,
            "think_time": all_think[order],
            "wait_time": np.zeros(n_jobs),
        }
