"""Deriving time series from workloads for self-similarity testing.

Section 9 tests four attributes per workload: the number of used
processors, the run time, the total CPU time, and the inter-arrival time.
Following the paper (which analyzes the stream of jobs as logged), each
attribute is taken as the *job-order* series: the sequence of per-job
values with jobs sorted by arrival.  ``binned_counts`` additionally offers
the network-style view (arrivals per fixed time bin) used by the Ethernet
and web-traffic studies the paper cites.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.workload.statistics import interarrival_times
from repro.workload.workload import Workload

__all__ = ["SERIES_ATTRIBUTES", "workload_series", "binned_counts"]

#: Table 3's four attribute series, in its column-group order.
SERIES_ATTRIBUTES: Tuple[str, ...] = (
    "used_procs",
    "run_time",
    "cpu_time",
    "interarrival",
)


def workload_series(workload: Workload, attribute: str) -> np.ndarray:
    """One of the four Table 3 series for a workload, in arrival order.

    Parameters
    ----------
    workload:
        The workload to analyze.
    attribute:
        ``"used_procs"``, ``"run_time"``, ``"cpu_time"`` (run time times
        processors) or ``"interarrival"``.

    Returns
    -------
    numpy.ndarray
        The job-order series with unknown (negative) values dropped.
    """
    sorted_wl = workload.sorted_by_submit()
    if attribute == "used_procs":
        vals = sorted_wl.column("used_procs").astype(float)
        return vals[vals > 0]
    if attribute == "run_time":
        vals = sorted_wl.column("run_time")
        return vals[vals >= 0]
    if attribute == "cpu_time":
        # Total CPU time, preferring the measured per-processor CPU time
        # and falling back to wall-clock runtime (the paper's rule 3).
        run = sorted_wl.column("run_time")
        cpu = sorted_wl.column("avg_cpu_time")
        procs = sorted_wl.column("used_procs").astype(float)
        base = np.where(cpu >= 0, cpu, run)
        mask = (base >= 0) & (procs > 0)
        return base[mask] * procs[mask]
    if attribute == "interarrival":
        return interarrival_times(sorted_wl)
    raise ValueError(
        f"unknown attribute {attribute!r}; known: {SERIES_ATTRIBUTES}"
    )


def binned_counts(workload: Workload, bin_seconds: float) -> np.ndarray:
    """Arrivals per fixed time bin — the arrival-process counting series."""
    if bin_seconds <= 0:
        raise ValueError(f"bin_seconds must be > 0, got {bin_seconds}")
    submit = workload.column("submit_time")
    submit = submit[submit >= 0]
    if submit.size == 0:
        return np.empty(0)
    origin = submit.min()
    idx = np.floor((submit - origin) / bin_seconds).astype(int)
    return np.bincount(idx).astype(float)
