"""Log-anomaly detection — operationalizing the paper's Section 1 doubts.

"In reality, the third issue — correctness of the log — is almost always
questioned by mysterious jobs that exceeded the system's limits,
undocumented downtime, dedication of the system to certain users, and
other 'minor' undocumented administrative changes which distort the
users' true wishes."

Each of those four failure modes gets a detector:

* :func:`find_limit_violations` — jobs whose runtime exceeds the
  administrative limit, or whose size exceeds the machine ("what do you
  do with a job that lasted more than the system allows?" — Section 3);
* :func:`find_downtime_gaps` — arrival gaps so far beyond the gap
  distribution that they indicate undocumented downtime rather than an
  idle spell;
* :func:`find_dedication_periods` — time windows in which a single user
  consumed almost all delivered node-seconds (the machine was effectively
  dedicated);
* :func:`find_duplicate_records` — identical (submit, user, size,
  runtime) rows, the classic double-logging artefact.

:func:`audit_workload` bundles them into one report, and
:func:`drop_limit_violations` provides the conservative cleaning step the
paper's order-moment methodology permits (outliers must *not* be removed
wholesale — Section 3 — but provably impossible records may be).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.util.validation import check_positive, check_probability
from repro.workload.workload import Workload

__all__ = [
    "LimitViolations",
    "DowntimeGap",
    "DedicationPeriod",
    "AnomalyReport",
    "find_limit_violations",
    "find_downtime_gaps",
    "find_dedication_periods",
    "find_duplicate_records",
    "audit_workload",
    "drop_limit_violations",
]


@dataclass(frozen=True)
class LimitViolations:
    """Indices of jobs violating hard system limits."""

    runtime_over_limit: np.ndarray
    size_over_machine: np.ndarray
    negative_duration: np.ndarray

    @property
    def total(self) -> int:
        return int(
            self.runtime_over_limit.size
            + self.size_over_machine.size
            + self.negative_duration.size
        )

    def all_indices(self) -> np.ndarray:
        return np.unique(
            np.concatenate(
                [self.runtime_over_limit, self.size_over_machine, self.negative_duration]
            )
        )


@dataclass(frozen=True)
class DowntimeGap:
    """One suspected downtime interval."""

    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class DedicationPeriod:
    """A window in which one user consumed nearly all delivered work."""

    start: float
    end: float
    user_id: int
    share: float  #: that user's fraction of the window's node-seconds


@dataclass(frozen=True)
class AnomalyReport:
    """Bundle of all detector outputs for one workload."""

    workload_name: str
    n_jobs: int
    limits: LimitViolations
    downtime: List[DowntimeGap]
    dedication: List[DedicationPeriod]
    duplicates: np.ndarray

    @property
    def is_clean(self) -> bool:
        return (
            self.limits.total == 0
            and not self.downtime
            and not self.dedication
            and self.duplicates.size == 0
        )

    def summary(self) -> str:
        return (
            f"{self.workload_name}: {self.limits.total} limit violation(s), "
            f"{len(self.downtime)} downtime gap(s), "
            f"{len(self.dedication)} dedication period(s), "
            f"{self.duplicates.size} duplicate record(s) "
            f"in {self.n_jobs} jobs"
        )


def find_limit_violations(
    workload: Workload,
    *,
    runtime_limit: Optional[float] = None,
) -> LimitViolations:
    """Jobs that exceed hard limits.

    *runtime_limit* defaults to the log's submission span: a recorded
    runtime longer than the whole logging period is the paper's "job that
    lasted more than the system allows".  (The span is computed from
    submit times only — a corrupt runtime must not be allowed to stretch
    the yardstick it is measured against.)
    """
    run = workload.column("run_time")
    procs = workload.column("used_procs")
    if runtime_limit is None:
        submit = workload.column("submit_time")
        submit = submit[submit >= 0]
        span = float(submit.max() - submit.min()) if submit.size >= 2 else 0.0
        runtime_limit = max(span, 1.0)
    else:
        check_positive(runtime_limit, "runtime_limit")
    over_run = np.flatnonzero(run > runtime_limit)
    over_size = np.flatnonzero(procs > workload.machine.processors)
    negative = np.flatnonzero((run < 0) & (run != -1))  # -1 is legal "unknown"
    return LimitViolations(
        runtime_over_limit=over_run,
        size_over_machine=over_size,
        negative_duration=negative,
    )


def find_downtime_gaps(
    workload: Workload,
    *,
    factor: float = 20.0,
    min_gap: float = 3600.0,
) -> List[DowntimeGap]:
    """Arrival gaps indicating undocumented downtime.

    A gap is flagged when it exceeds both *min_gap* seconds and *factor*
    times the 95th percentile of all gaps — i.e. it is extreme even
    relative to the log's own heavy-tailed gap distribution.
    """
    check_positive(factor, "factor")
    check_positive(min_gap, "min_gap")
    submit = np.sort(workload.column("submit_time"))
    submit = submit[submit >= 0]
    if submit.size < 10:
        return []
    gaps = np.diff(submit)
    threshold = max(float(np.quantile(gaps, 0.95)) * factor, min_gap)
    out = []
    for i in np.flatnonzero(gaps > threshold):
        out.append(DowntimeGap(start=float(submit[i]), end=float(submit[i + 1])))
    return out


def find_dedication_periods(
    workload: Workload,
    *,
    window_seconds: float = 7 * 24 * 3600.0,
    share_threshold: float = 0.9,
    min_jobs: int = 20,
) -> List[DedicationPeriod]:
    """Windows where one user received nearly all delivered node-seconds."""
    check_positive(window_seconds, "window_seconds")
    check_probability(share_threshold, "share_threshold")
    submit = workload.column("submit_time")
    run = workload.column("run_time")
    procs = workload.column("used_procs").astype(float)
    users = workload.column("user_id")
    valid = (submit >= 0) & (run >= 0) & (procs > 0) & (users >= 0)
    if valid.sum() < min_jobs:
        return []
    submit, run, procs, users = submit[valid], run[valid], procs[valid], users[valid]
    work = run * procs
    origin = float(submit.min())
    idx = np.floor((submit - origin) / window_seconds).astype(int)

    out: List[DedicationPeriod] = []
    for w in np.unique(idx):
        mask = idx == w
        if int(mask.sum()) < min_jobs:
            continue
        total = float(work[mask].sum())
        if total <= 0:
            continue
        window_users = users[mask]
        window_work = work[mask]
        top_user = -1
        top_share = 0.0
        for uid in np.unique(window_users):
            share = float(window_work[window_users == uid].sum()) / total
            if share > top_share:
                top_share = share
                top_user = int(uid)
        if top_share >= share_threshold:
            out.append(
                DedicationPeriod(
                    start=origin + w * window_seconds,
                    end=origin + (w + 1) * window_seconds,
                    user_id=top_user,
                    share=top_share,
                )
            )
    return out


def find_duplicate_records(workload: Workload) -> np.ndarray:
    """Indices of records identical to an earlier one in (submit, user,
    size, runtime) — double-logging artefacts."""
    keys = np.column_stack(
        [
            workload.column("submit_time"),
            workload.column("user_id"),
            workload.column("used_procs"),
            workload.column("run_time"),
        ]
    )
    _, first_index, counts = np.unique(
        keys, axis=0, return_index=True, return_counts=True
    )
    duplicated_keys = keys[first_index[counts > 1]]
    if duplicated_keys.size == 0:
        return np.empty(0, dtype=np.int64)
    dupes: List[int] = []
    seen = set()
    for i, row in enumerate(map(tuple, keys)):
        if row in seen:
            dupes.append(i)
        else:
            seen.add(row)
    return np.asarray(dupes, dtype=np.int64)


def audit_workload(
    workload: Workload,
    *,
    runtime_limit: Optional[float] = None,
) -> AnomalyReport:
    """Run every detector and bundle the findings."""
    return AnomalyReport(
        workload_name=workload.name,
        n_jobs=len(workload),
        limits=find_limit_violations(workload, runtime_limit=runtime_limit),
        downtime=find_downtime_gaps(workload),
        dedication=find_dedication_periods(workload),
        duplicates=find_duplicate_records(workload),
    )


def drop_limit_violations(
    workload: Workload,
    *,
    runtime_limit: Optional[float] = None,
) -> Tuple[Workload, int]:
    """Remove provably impossible records (and nothing else).

    The paper's Section 3 warns that big jobs "must never be removed from
    workloads as outliers"; this removes only records that violate hard
    physical/administrative constraints.  Returns ``(cleaned, n_removed)``.
    """
    violations = find_limit_violations(workload, runtime_limit=runtime_limit)
    bad = violations.all_indices()
    if bad.size == 0:
        return workload, 0
    mask = np.ones(len(workload), dtype=bool)
    mask[bad] = False
    return workload.filter(mask, name=workload.name), int(bad.size)
