"""Workload data model.

A :class:`~repro.workload.workload.Workload` is a NumPy column store of
parallel jobs plus machine metadata, readable from and writable to the
Standard Workload Format (SWF) that the paper's parallel-workloads archive
introduced.  On top of it sit the filters used in the paper (interactive /
batch split, six-month windows) and the extraction of the Table 1 / Table 2
variables in :mod:`repro.workload.statistics`.
"""

from repro.workload.fields import SWF_FIELDS, SwfField, STATUS_COMPLETED, STATUS_FAILED, STATUS_CANCELLED
from repro.workload.workload import Workload, MachineInfo
from repro.workload.swf import read_swf, write_swf, parse_swf_text, render_swf_text
from repro.workload.filters import split_interactive_batch, split_time_windows
from repro.workload.statistics import (
    WorkloadStatistics,
    compute_statistics,
    runtime_load,
    cpu_load,
    interarrival_times,
    cpu_work,
    normalized_parallelism,
)
from repro.workload.variables import (
    VARIABLES,
    Variable,
    variable,
    observation_vector,
    observation_matrix,
)
from repro.workload.anomalies import (
    AnomalyReport,
    audit_workload,
    drop_limit_violations,
    find_dedication_periods,
    find_downtime_gaps,
    find_duplicate_records,
    find_limit_violations,
)

__all__ = [
    "SWF_FIELDS",
    "SwfField",
    "STATUS_COMPLETED",
    "STATUS_FAILED",
    "STATUS_CANCELLED",
    "Workload",
    "MachineInfo",
    "read_swf",
    "write_swf",
    "parse_swf_text",
    "render_swf_text",
    "split_interactive_batch",
    "split_time_windows",
    "WorkloadStatistics",
    "compute_statistics",
    "runtime_load",
    "cpu_load",
    "interarrival_times",
    "cpu_work",
    "normalized_parallelism",
    "VARIABLES",
    "Variable",
    "variable",
    "observation_vector",
    "observation_matrix",
    "AnomalyReport",
    "audit_workload",
    "drop_limit_violations",
    "find_dedication_periods",
    "find_downtime_gaps",
    "find_duplicate_records",
    "find_limit_violations",
]
