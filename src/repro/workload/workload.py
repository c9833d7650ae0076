"""The :class:`Workload` column store and machine metadata.

Workloads hold one NumPy array per SWF field — the vectorized layout the
statistics extraction (:mod:`repro.workload.statistics`) and self-similarity
analyses need, per the HPC-Python guidance of preferring whole-array
operations over per-job loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.workload.fields import FIELD_NAMES, MISSING, SWF_FIELDS

__all__ = ["MachineInfo", "Workload"]

_INT_FIELDS = frozenset(f.name for f in SWF_FIELDS if f.dtype == "int")


@dataclass(frozen=True)
class MachineInfo:
    """Static description of the machine a workload ran on.

    ``scheduler_flexibility`` and ``allocation_flexibility`` are the paper's
    ordinal ranks: schedulers NQS=1 < EASY/backfilling=2 < gang=3;
    allocation power-of-2 partitions=1 < limited (meshes)=2 < unlimited=3.
    """

    name: str
    processors: int
    scheduler_flexibility: int = MISSING
    allocation_flexibility: int = MISSING
    description: str = ""

    def __post_init__(self):
        if self.processors < 1:
            raise ValueError(f"processors must be >= 1, got {self.processors}")
        for attr in ("scheduler_flexibility", "allocation_flexibility"):
            value = getattr(self, attr)
            if value != MISSING and value not in (1, 2, 3):
                raise ValueError(f"{attr} must be 1..3 or MISSING, got {value}")


class Workload:
    """An ordered collection of jobs on one machine (NumPy column store).

    Columns follow the 18 SWF fields; ``-1`` marks missing values exactly as
    in SWF files.  Instances are immutable by convention: every transforming
    operation returns a new ``Workload`` sharing no mutable state.
    """

    def __init__(
        self,
        columns: Mapping[str, np.ndarray],
        machine: MachineInfo,
        name: Optional[str] = None,
    ):
        lengths = set()
        cols: Dict[str, np.ndarray] = {}
        for field_name in FIELD_NAMES:
            if field_name not in columns:
                raise ValueError(f"missing column {field_name!r}")
            dtype = np.int64 if field_name in _INT_FIELDS else np.float64
            arr = np.asarray(columns[field_name])
            if arr.ndim != 1:
                raise ValueError(f"column {field_name!r} must be 1-D, got shape {arr.shape}")
            cols[field_name] = np.ascontiguousarray(arr, dtype=dtype)
            lengths.add(arr.shape[0])
        extra = set(columns) - set(FIELD_NAMES)
        if extra:
            raise ValueError(f"unknown columns: {sorted(extra)}")
        if len(lengths) > 1:
            raise ValueError(f"columns have unequal lengths: {sorted(lengths)}")
        self._columns = cols
        self.machine = machine
        self.name = name if name is not None else machine.name

    # -- construction ----------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        *,
        machine: MachineInfo,
        name: Optional[str] = None,
        **arrays,
    ) -> "Workload":
        """Build a workload from keyword arrays; unspecified SWF columns are
        filled with the missing sentinel, and ``job_id`` defaults to 1..n."""
        known = {k: np.asarray(v) for k, v in arrays.items()}
        bad = set(known) - set(FIELD_NAMES)
        if bad:
            raise ValueError(f"unknown columns: {sorted(bad)}")
        if not known:
            raise ValueError("at least one column is required")
        n = len(next(iter(known.values())))
        columns = {}
        for field_name in FIELD_NAMES:
            if field_name in known:
                columns[field_name] = known[field_name]
            elif field_name == "job_id":
                columns[field_name] = np.arange(1, n + 1)
            elif field_name == "status":
                columns[field_name] = np.ones(n, dtype=np.int64)
            else:
                columns[field_name] = np.full(n, MISSING, dtype=np.float64)
        return cls(columns, machine, name)

    # -- basic protocol ----------------------------------------------------
    def __len__(self) -> int:
        return int(self._columns["job_id"].shape[0])

    @property
    def n_jobs(self) -> int:
        """Number of jobs in the workload."""
        return len(self)

    def column(self, name: str) -> np.ndarray:
        """A read-only view of one column."""
        try:
            arr = self._columns[name]
        except KeyError:
            raise KeyError(f"no such column: {name!r}") from None
        view = arr.view()
        view.flags.writeable = False
        return view

    def __getattr__(self, name: str):
        # Called only when normal lookup fails: expose columns as attributes.
        if name in FIELD_NAMES:
            return self.column(name)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __repr__(self) -> str:
        return (
            f"Workload(name={self.name!r}, jobs={len(self)}, "
            f"machine={self.machine.name!r}, procs={self.machine.processors})"
        )

    # -- derived quantities ------------------------------------------------
    @property
    def start_times(self) -> np.ndarray:
        """Job start times: submit + wait (missing wait treated as zero)."""
        wait = np.where(self._columns["wait_time"] >= 0, self._columns["wait_time"], 0.0)
        return self._columns["submit_time"] + wait

    @property
    def end_times(self) -> np.ndarray:
        """Job end times: start + run (missing run treated as zero)."""
        run = np.where(self._columns["run_time"] >= 0, self._columns["run_time"], 0.0)
        return self.start_times + run

    def duration(self) -> float:
        """Log duration: last job end minus first submit; 0 for empty logs."""
        if len(self) == 0:
            return 0.0
        return float(self.end_times.max() - self._columns["submit_time"].min())

    # -- transforms ----------------------------------------------------------
    def filter(self, mask, name: Optional[str] = None) -> "Workload":
        """Subset by boolean mask or index array; returns a new workload."""
        mask = np.asarray(mask)
        columns = {k: v[mask] for k, v in self._columns.items()}
        return Workload(columns, self.machine, name if name is not None else self.name)

    def sorted_by_submit(self) -> "Workload":
        """Jobs in nondecreasing submit-time order (stable).

        A workload already in that order is returned as it is: the
        stable sort would be the identity permutation, and skipping it
        saves copying every column.
        """
        submit = self._columns["submit_time"]
        if np.all(submit[1:] >= submit[:-1]):
            return self
        return self.filter(np.argsort(submit, kind="mergesort"))

    def with_name(self, name: str) -> "Workload":
        """Same data under a different display name."""
        return Workload(dict(self._columns), self.machine, name)

    def with_machine(self, machine: MachineInfo) -> "Workload":
        """Same data attributed to a different machine."""
        return Workload(dict(self._columns), machine, self.name)

    def concat(self, other: "Workload", name: Optional[str] = None) -> "Workload":
        """Concatenate two workloads of the same machine (job order kept)."""
        if other.machine.processors != self.machine.processors:
            raise ValueError(
                "cannot concat workloads from machines of different sizes: "
                f"{self.machine.processors} vs {other.machine.processors}"
            )
        columns = {
            k: np.concatenate([v, other._columns[k]]) for k, v in self._columns.items()
        }
        return Workload(columns, self.machine, name if name is not None else self.name)
