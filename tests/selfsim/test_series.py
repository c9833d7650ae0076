"""Tests for workload-to-series derivation."""

import numpy as np
import pytest

from repro.selfsim import SERIES_ATTRIBUTES, binned_counts, workload_series
from repro.workload import MachineInfo, Workload
from repro.workload.fields import MISSING


@pytest.fixture
def machine():
    return MachineInfo("m", 16)


class TestWorkloadSeries:
    def test_attributes_registry(self):
        assert SERIES_ATTRIBUTES == ("used_procs", "run_time", "cpu_time", "interarrival")

    def test_arrival_order(self, machine):
        w = Workload.from_arrays(
            machine=machine,
            submit_time=[20.0, 0.0, 10.0],
            run_time=[3.0, 1.0, 2.0],
            used_procs=[8, 2, 4],
        )
        assert np.array_equal(workload_series(w, "run_time"), [1.0, 2.0, 3.0])
        assert np.array_equal(workload_series(w, "used_procs"), [2.0, 4.0, 8.0])

    def test_cpu_time_prefers_measured(self, machine):
        w = Workload.from_arrays(
            machine=machine,
            submit_time=[0.0, 1.0],
            run_time=[10.0, 10.0],
            used_procs=[2, 2],
            avg_cpu_time=[4.0, MISSING],
        )
        # First job: measured 4*2; second: fallback 10*2.
        assert np.array_equal(workload_series(w, "cpu_time"), [8.0, 20.0])

    def test_interarrival(self, machine):
        w = Workload.from_arrays(
            machine=machine, submit_time=[0.0, 5.0, 15.0], run_time=[1.0] * 3,
            used_procs=[1] * 3,
        )
        assert np.array_equal(workload_series(w, "interarrival"), [5.0, 10.0])

    def test_missing_values_dropped(self, machine):
        w = Workload.from_arrays(
            machine=machine,
            submit_time=[0.0, 1.0, 2.0],
            run_time=[5.0, MISSING, 7.0],
            used_procs=[1, 1, 1],
        )
        assert np.array_equal(workload_series(w, "run_time"), [5.0, 7.0])

    def test_unknown_attribute(self, machine, small_workload):
        with pytest.raises(ValueError, match="unknown attribute"):
            workload_series(small_workload, "wait")

    def test_series_on_real_synth(self, synthesized_ctc):
        for attr in SERIES_ATTRIBUTES:
            series = workload_series(synthesized_ctc, attr)
            assert series.size > 5000
            assert np.all(series >= 0)


class TestBinnedCounts:
    def test_counts(self, machine):
        w = Workload.from_arrays(
            machine=machine,
            submit_time=[0.0, 1.0, 2.5, 9.9],
            run_time=[1.0] * 4,
            used_procs=[1] * 4,
        )
        counts = binned_counts(w, 5.0)
        assert np.array_equal(counts, [3.0, 1.0])

    def test_total_preserved(self, small_workload):
        counts = binned_counts(small_workload, 120.0)
        assert counts.sum() == len(small_workload)

    def test_empty(self, machine):
        w = Workload.from_arrays(machine=machine, submit_time=[])
        assert binned_counts(w, 10.0).size == 0

    def test_validation(self, small_workload):
        with pytest.raises(ValueError):
            binned_counts(small_workload, 0.0)
