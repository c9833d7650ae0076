"""Workload filters used by the paper's analyses.

Section 3 displays the Los Alamos and San Diego logs "as three observations:
the entire log, the interactive jobs only, and the batch jobs only", and
Section 6 divides each long log into four six-month periods.  These helpers
implement exactly those splits on :class:`~repro.workload.workload.Workload`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.workload.workload import Workload

__all__ = [
    "split_interactive_batch",
    "split_time_windows",
    "SECONDS_PER_MONTH",
]

#: Average-month length used for the paper's "six months" windows.
SECONDS_PER_MONTH = 30.4375 * 24 * 3600.0


def split_interactive_batch(
    workload: Workload,
    *,
    interactive_queues: Optional[Sequence[int]] = None,
    runtime_threshold: Optional[float] = None,
) -> Tuple[Workload, Workload]:
    """Split a workload into (interactive, batch) sub-workloads.

    Two mechanisms, matching how archive logs record the distinction:

    * *interactive_queues*: sites like LANL tag interactive jobs with
      specific queue/partition numbers — jobs whose ``queue`` is in this
      set are interactive.
    * *runtime_threshold*: fallback when no queue tags exist; jobs with
      runtime at most the threshold (seconds) count as interactive.

    Exactly one of the two must be given.  Names get ``"-inter"`` /
    ``"-batch"`` suffixes, following the paper's LANLi/LANLb convention.
    """
    if (interactive_queues is None) == (runtime_threshold is None):
        raise ValueError("give exactly one of interactive_queues or runtime_threshold")
    if interactive_queues is not None:
        queues = np.asarray(list(interactive_queues))
        mask = np.isin(workload.column("queue"), queues)
    else:
        run = workload.column("run_time")
        mask = (run >= 0) & (run <= float(runtime_threshold))
    inter = workload.filter(mask, name=f"{workload.name}-inter")
    batch = workload.filter(~mask, name=f"{workload.name}-batch")
    return inter, batch


def split_time_windows(
    workload: Workload,
    n_windows: int,
    *,
    window_seconds: Optional[float] = None,
    label_fmt: str = "{name}-{i}",
) -> List[Workload]:
    """Divide a log into *n_windows* consecutive periods by submit time.

    With *window_seconds* given, windows have that fixed length starting at
    the first submit (the paper's "four periods of six months each"); jobs
    beyond ``n_windows * window_seconds`` are dropped.  Otherwise the
    observed submit span is divided evenly.
    """
    if n_windows < 1:
        raise ValueError(f"n_windows must be >= 1, got {n_windows}")
    if len(workload) == 0:
        raise ValueError("cannot split an empty workload")
    submit = workload.column("submit_time")
    origin = float(submit.min())
    derived_from_span = window_seconds is None
    if derived_from_span:
        span = float(submit.max()) - origin
        window_seconds = span / n_windows if span > 0 else 1.0
    if window_seconds <= 0:
        raise ValueError(f"window_seconds must be > 0, got {window_seconds}")

    out: List[Workload] = []
    for i in range(n_windows):
        lo = origin + i * window_seconds
        hi = origin + (i + 1) * window_seconds
        mask = (submit >= lo) & (submit < hi)
        if i == n_windows - 1 and derived_from_span:
            # When the span was divided evenly, the latest job sits exactly
            # on the upper edge of the last window; keep it.
            mask |= submit >= hi
        label = label_fmt.format(name=workload.name, i=i + 1)
        out.append(workload.filter(mask, name=label))
    return out
