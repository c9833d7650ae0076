"""Common interface of the synthetic workload models.

A model is a pure generator: given a job count, a machine size and a seed
it produces a :class:`~repro.workload.workload.Workload`.  The paper treats
all five models as "pure models" — jobs run immediately on submission (no
queueing feedback), which is how repeated executions in the Feitelson
models are scheduled.

Every model samples its stream with bulk NumPy draws and array
assembly.  The Lublin, Feitelson 96/97, Jann and user-session samplers
replaced per-job scalar loops; those loops consume the same draw plans
and live on as bit-for-bit equivalence oracles in
``tests/oracles/models.py``, which build their workloads through the same
:meth:`WorkloadModel._assemble` step as :meth:`WorkloadModel.generate`.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.util.rng import SeedLike, as_generator
from repro.workload.statistics import WorkloadStatistics, compute_statistics
from repro.workload.workload import MachineInfo, Workload

__all__ = ["WorkloadModel"]


class WorkloadModel(abc.ABC):
    """Abstract synthetic workload model.

    Subclasses implement :meth:`_generate_arrays` returning the three
    core job-stream arrays.  This base class assembles them into a
    :class:`Workload` and offers the Figure 4 statistics shortcut.
    """

    #: Display name used in the figures (subclasses override).
    name: str = "model"

    def __init__(self, machine_procs: int = 128):
        if machine_procs < 1:
            raise ValueError(f"machine_procs must be >= 1, got {machine_procs}")
        self.machine_procs = int(machine_procs)

    @abc.abstractmethod
    def _generate_arrays(self, n_jobs: int, rng: np.random.Generator) -> dict:
        """Produce the raw job-stream columns.

        Must return a dict with at least ``submit_time`` (nondecreasing is
        not required; the workload is sorted), ``run_time`` and
        ``used_procs`` arrays of length *n_jobs*; extra SWF columns
        (``user_id``, ``executable_id``...) are passed through.
        """

    def generate(self, n_jobs: int, seed: SeedLike = None) -> Workload:
        """Generate a workload of *n_jobs* jobs.

        The result is sorted by submit time and carries the model's name as
        both the workload and the machine name.
        """
        if n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
        return self._assemble(self._generate_arrays(int(n_jobs), as_generator(seed)))

    def _assemble(self, arrays: dict) -> Workload:
        """Check the raw columns, anchor the stream at t = 0 and build the
        submit-sorted :class:`Workload`."""
        for required in ("submit_time", "run_time", "used_procs"):
            if required not in arrays:
                raise RuntimeError(f"{type(self).__name__} did not produce {required!r}")
        procs = np.asarray(arrays["used_procs"])
        if np.any(procs < 1) or np.any(procs > self.machine_procs):
            raise RuntimeError(
                f"{type(self).__name__} produced job sizes outside "
                f"[1, {self.machine_procs}]"
            )
        if np.any(np.asarray(arrays["run_time"]) < 0):
            raise RuntimeError(f"{type(self).__name__} produced negative runtimes")
        # Anchor the stream at t = 0 so durations/loads are comparable
        # across models regardless of the first arrival gap.
        submit = np.asarray(arrays["submit_time"], dtype=float)
        arrays = dict(arrays, submit_time=submit - submit.min())
        machine = MachineInfo(name=self.name, processors=self.machine_procs)
        workload = Workload.from_arrays(machine=machine, name=self.name, **arrays)
        return workload.sorted_by_submit()

    def statistics(self, n_jobs: int = 10000, seed: SeedLike = 0) -> WorkloadStatistics:
        """The model's Table 1-style variable vector from a generated stream.

        Only the eight model-comparable variables (order statistics of
        runtime, parallelism, CPU work and inter-arrival) are meaningful;
        the paper discards the rest when comparing models to logs.
        """
        return compute_statistics(self.generate(n_jobs, seed=seed))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(machine_procs={self.machine_procs})"
