"""Single-job record.

The column store in :mod:`repro.workload.workload` is the fast path; a
:class:`Job` is the convenient scalar view of one row, used by generators
that naturally think job-by-job (e.g. Feitelson's repeated executions) and
by the SWF parser tests.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields

from repro.workload.fields import MISSING, STATUS_COMPLETED

__all__ = ["Job"]


@dataclass
class Job:
    """One parallel job, mirroring the 18 SWF fields.

    Unknown values default to ``-1`` exactly as in SWF files, except
    ``status`` which defaults to completed (synthetic models generate only
    successful jobs).
    """

    job_id: int = MISSING
    submit_time: float = 0.0
    wait_time: float = MISSING
    run_time: float = MISSING
    used_procs: int = MISSING
    avg_cpu_time: float = MISSING
    used_memory: float = MISSING
    requested_procs: int = MISSING
    requested_time: float = MISSING
    requested_memory: float = MISSING
    status: int = STATUS_COMPLETED
    user_id: int = MISSING
    group_id: int = MISSING
    executable_id: int = MISSING
    queue: int = MISSING
    partition: int = MISSING
    preceding_job: int = MISSING
    think_time: float = MISSING

    def as_tuple(self) -> tuple:
        """Field values in SWF order."""
        return tuple(getattr(self, f.name) for f in dc_fields(self))

    @property
    def cpu_work(self) -> float:
        """Total CPU work: run time times number of processors.

        This is the paper's 'total CPU work (over all processors of the
        job)'; ``-1`` if either factor is unknown.
        """
        if self.run_time < 0 or self.used_procs < 0:
            return float(MISSING)
        return float(self.run_time) * float(self.used_procs)

    @property
    def end_time(self) -> float:
        """Completion time: submit + wait + run (missing values treated as 0)."""
        wait = max(self.wait_time, 0.0)
        run = max(self.run_time, 0.0)
        return float(self.submit_time) + wait + run
