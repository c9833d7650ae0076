"""Extraction of the paper's workload characteristics (Table 1 / Table 2).

Given a :class:`~repro.workload.workload.Workload`, :func:`compute_statistics`
produces the full set of variables of Section 3:

1.  number of processors in the system (``MP``),
2.  scheduler flexibility rank (``SF``),
3.  processor-allocation flexibility rank (``AL``),
4.  runtime load (``RL``): allocated node-seconds over available node-seconds,
5.  CPU load (``CL``): actual CPU work over available CPU time,
6.  normalized number of executables (``E``): distinct executables per job,
7.  normalized number of users (``U``): distinct users per job,
8.  percent of successfully completed jobs (``C``),
9.  median / 90% interval of runtimes (``Rm`` / ``Ri``),
10. median / interval of degree of parallelism (``Pm`` / ``Pi``),
11. median / interval of *normalized* parallelism (``Nm`` / ``Ni``) —
    processors a job would use out of a 128-processor machine,
12. median / interval of total CPU work (``Cm`` / ``Ci``),
13. median / interval of inter-arrival times (``Im`` / ``Ii``).

The paper's missing-value conventions (its Section 3 list) are applied:
if one of CPU load / runtime load is unavailable the other is used; when
submit times are unknown inter-arrivals are based on start times; total CPU
work falls back to runtime x parallelism and vice versa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dc_fields
from typing import Dict

import numpy as np

from repro.stats.percentiles import interval as central_interval
from repro.workload.fields import MISSING, STATUS_COMPLETED
from repro.workload.workload import Workload

__all__ = [
    "WorkloadStatistics",
    "compute_statistics",
    "runtime_load",
    "cpu_load",
    "interarrival_times",
    "cpu_work",
    "normalized_parallelism",
]

#: The reference machine size for normalized parallelism (the paper's choice:
#: "we treat jobs as if they requested from a 128-node machine").
NORMALIZATION_PROCS = 128.0


def _valid(arr: np.ndarray) -> np.ndarray:
    """Entries that are not the SWF missing sentinel."""
    return arr[arr >= 0]


def runtime_load(workload: Workload) -> float:
    """Percent of available node-seconds actually allocated to jobs.

    Sum of runtime x processors over all jobs, divided by machine
    processors x log duration.  NaN when runtimes or sizes are unknown or
    the log is degenerate.
    """
    run = workload.column("run_time")
    procs = workload.column("used_procs")
    mask = (run >= 0) & (procs > 0)
    if not mask.any():
        return math.nan
    total = float(np.sum(run[mask] * procs[mask]))
    duration = workload.duration()
    if duration <= 0:
        return math.nan
    return total / (workload.machine.processors * duration)


def cpu_load(workload: Workload) -> float:
    """Percent of actual CPU work out of total available CPU time.

    Uses the SWF average-CPU-time-per-processor field; NaN when missing.
    """
    cpu = workload.column("avg_cpu_time")
    procs = workload.column("used_procs")
    mask = (cpu >= 0) & (procs > 0)
    if not mask.any():
        return math.nan
    total = float(np.sum(cpu[mask] * procs[mask]))
    duration = workload.duration()
    if duration <= 0:
        return math.nan
    return total / (workload.machine.processors * duration)


def interarrival_times(workload: Workload) -> np.ndarray:
    """Inter-arrival times between consecutive job submissions.

    Jobs are ordered by submit time.  When submit times are unknown (all
    missing), start times are used instead — the paper's rule 2 for the
    NASA, LLNL and interactive workloads.
    """
    submit = workload.column("submit_time")
    base = workload.start_times if np.all(submit < 0) else submit
    base = base[base >= 0]
    if base.size < 2:
        return np.empty(0)
    return np.diff(np.sort(base, kind="mergesort"))


def cpu_work(workload: Workload) -> np.ndarray:
    """Per-job total CPU work over all processors of the job.

    Primary definition: the measured CPU time x parallelism (the paper's
    'total CPU work' is actual processing, which is why its Cm can sit far
    below runtime x parallelism on machines with large minimum partitions).
    Falls back to runtime x parallelism when CPU time is unknown — the
    paper's rule 3 for the NASA log.  Jobs with neither are dropped.
    """
    run = workload.column("run_time")
    cpu = workload.column("avg_cpu_time")
    procs = workload.column("used_procs").astype(float)
    base = np.where(cpu >= 0, cpu, run)
    mask = (base >= 0) & (procs > 0)
    return base[mask] * procs[mask]


def effective_runtimes(workload: Workload) -> np.ndarray:
    """Runtimes, approximated by average CPU time where unknown (rule 3,
    LLNL direction: runtime approximated from the total work)."""
    run = workload.column("run_time")
    cpu = workload.column("avg_cpu_time")
    out = np.where(run >= 0, run, cpu)
    return out[out >= 0]


def normalized_parallelism(workload: Workload) -> np.ndarray:
    """Processors each job would use out of a 128-processor machine."""
    procs = _valid(workload.column("used_procs").astype(float))
    procs = procs[procs > 0]
    return procs / workload.machine.processors * NORMALIZATION_PROCS


@dataclass(frozen=True)
class WorkloadStatistics:
    """The paper's per-workload variable vector (Table 1 row).

    NaN marks variables that could not be computed (rendered N/A, exactly
    as the paper prints them).
    """

    name: str
    machine_processors: float
    scheduler_flexibility: float
    allocation_flexibility: float
    runtime_load: float
    cpu_load: float
    norm_executables: float
    norm_users: float
    pct_completed: float
    runtime_median: float
    runtime_interval: float
    procs_median: float
    procs_interval: float
    norm_procs_median: float
    norm_procs_interval: float
    cpu_work_median: float
    cpu_work_interval: float
    interarrival_median: float
    interarrival_interval: float

    #: Short variable signs, as printed in Table 1.
    SIGNS = {
        "machine_processors": "MP",
        "scheduler_flexibility": "SF",
        "allocation_flexibility": "AL",
        "runtime_load": "RL",
        "cpu_load": "CL",
        "norm_executables": "E",
        "norm_users": "U",
        "pct_completed": "C",
        "runtime_median": "Rm",
        "runtime_interval": "Ri",
        "procs_median": "Pm",
        "procs_interval": "Pi",
        "norm_procs_median": "Nm",
        "norm_procs_interval": "Ni",
        "cpu_work_median": "Cm",
        "cpu_work_interval": "Ci",
        "interarrival_median": "Im",
        "interarrival_interval": "Ii",
    }

    def to_dict(self) -> Dict[str, float]:
        """Variable values keyed by full name (excludes the workload name)."""
        return {
            f.name: getattr(self, f.name) for f in dc_fields(self) if f.name != "name"
        }

    def by_sign(self) -> Dict[str, float]:
        """Variable values keyed by the paper's short signs."""
        return {self.SIGNS[k]: v for k, v in self.to_dict().items()}


def _order_pair(values: np.ndarray, coverage: float) -> tuple:
    if values.size == 0:
        return (math.nan, math.nan)
    return (
        float(np.quantile(values, 0.5)),
        float(central_interval(values, coverage)),
    )


def _per_job_ratio(ids: np.ndarray) -> float:
    valid = ids[ids >= 0]
    if valid.size == 0:
        return math.nan
    return float(np.unique(valid).size) / float(valid.size)


def compute_statistics(workload: Workload, *, coverage: float = 0.9) -> WorkloadStatistics:
    """Compute the full Table 1 variable vector for *workload*.

    *coverage* selects the interval width: 0.9 reproduces the paper's 90%
    interval; 0.5 gives the 50% interval it cross-checked with.
    """
    machine = workload.machine

    rl = runtime_load(workload)
    cl = cpu_load(workload)
    # Paper rule 1: substitute the available load for the missing one.
    if math.isnan(rl) and not math.isnan(cl):
        rl = cl
    elif math.isnan(cl) and not math.isnan(rl):
        cl = rl

    run_median, run_interval = _order_pair(effective_runtimes(workload), coverage)

    procs = workload.column("used_procs").astype(float)
    procs = procs[procs > 0]
    procs_median, procs_interval = _order_pair(procs, coverage)
    norm_median, norm_interval = _order_pair(normalized_parallelism(workload), coverage)
    work_median, work_interval = _order_pair(cpu_work(workload), coverage)
    ia_median, ia_interval = _order_pair(interarrival_times(workload), coverage)

    status = workload.column("status")
    known_status = status[status >= 0]
    pct_completed = (
        float(np.mean(known_status == STATUS_COMPLETED)) if known_status.size else math.nan
    )

    return WorkloadStatistics(
        name=workload.name,
        machine_processors=float(machine.processors),
        scheduler_flexibility=(
            float(machine.scheduler_flexibility)
            if machine.scheduler_flexibility != MISSING
            else math.nan
        ),
        allocation_flexibility=(
            float(machine.allocation_flexibility)
            if machine.allocation_flexibility != MISSING
            else math.nan
        ),
        runtime_load=rl,
        cpu_load=cl,
        norm_executables=_per_job_ratio(workload.column("executable_id")),
        norm_users=_per_job_ratio(workload.column("user_id")),
        pct_completed=pct_completed,
        runtime_median=run_median,
        runtime_interval=run_interval,
        procs_median=procs_median,
        procs_interval=procs_interval,
        norm_procs_median=norm_median,
        norm_procs_interval=norm_interval,
        cpu_work_median=work_median,
        cpu_work_interval=work_interval,
        interarrival_median=ia_median,
        interarrival_interval=ia_interval,
    )
