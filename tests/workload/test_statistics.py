"""Tests for repro.workload.statistics (the Table 1 variable extraction)."""

import math

import numpy as np
import pytest

from repro.workload import MachineInfo, Workload, compute_statistics
from repro.workload.fields import MISSING
from repro.workload.statistics import (
    cpu_load,
    cpu_work,
    interarrival_times,
    normalized_parallelism,
    runtime_load,
)


@pytest.fixture
def machine():
    return MachineInfo("m", 100, scheduler_flexibility=2, allocation_flexibility=3)


def make(machine, **cols):
    return Workload.from_arrays(machine=machine, **cols)


class TestRuntimeLoad:
    def test_full_machine_is_one(self, machine):
        # One job using the whole machine for the whole duration.
        w = make(machine, submit_time=[0.0], wait_time=[0.0], run_time=[100.0], used_procs=[100])
        assert runtime_load(w) == pytest.approx(1.0)

    def test_half_load(self, machine):
        w = make(
            machine,
            submit_time=[0.0, 0.0],
            wait_time=[0.0, 0.0],
            run_time=[100.0, 100.0],
            used_procs=[25, 25],
        )
        assert runtime_load(w) == pytest.approx(0.5)

    def test_missing_runtimes_nan(self, machine):
        w = make(machine, submit_time=[0.0], used_procs=[4])
        assert math.isnan(runtime_load(w))

    def test_zero_duration_nan(self, machine):
        w = make(machine, submit_time=[0.0], wait_time=[0.0], run_time=[0.0], used_procs=[4])
        assert math.isnan(runtime_load(w))


class TestCpuLoad:
    def test_uses_cpu_field(self, machine):
        w = make(
            machine,
            submit_time=[0.0],
            wait_time=[0.0],
            run_time=[100.0],
            used_procs=[100],
            avg_cpu_time=[50.0],
        )
        assert cpu_load(w) == pytest.approx(0.5)

    def test_missing_gives_nan(self, machine):
        w = make(machine, submit_time=[0.0], wait_time=[0.0], run_time=[100.0], used_procs=[100])
        assert math.isnan(cpu_load(w))


class TestInterarrival:
    def test_diffs_of_sorted_submits(self, machine):
        w = make(machine, submit_time=[10.0, 0.0, 30.0], run_time=[1.0, 1.0, 1.0])
        assert np.array_equal(interarrival_times(w), [10.0, 20.0])

    def test_start_fallback(self, machine):
        w = make(
            machine,
            submit_time=[MISSING, MISSING],
            wait_time=[0.0, 0.0],
            run_time=[1.0, 1.0],
        )
        # All submits missing: falls back to start times (also 0 here since
        # submit is the base) -- the result is empty-safe, not crashing.
        out = interarrival_times(w)
        assert out.size == 0  # starts are negative too (missing submit)

    def test_single_job_empty(self, machine):
        w = make(machine, submit_time=[5.0], run_time=[1.0])
        assert interarrival_times(w).size == 0


class TestCpuWork:
    def test_prefers_cpu_time(self, machine):
        w = make(
            machine,
            submit_time=[0.0],
            run_time=[100.0],
            used_procs=[4],
            avg_cpu_time=[50.0],
        )
        assert np.array_equal(cpu_work(w), [200.0])

    def test_falls_back_to_runtime(self, machine):
        """Paper rule 3 (NASA): work approximated by runtime x procs."""
        w = make(machine, submit_time=[0.0], run_time=[100.0], used_procs=[4])
        assert np.array_equal(cpu_work(w), [400.0])

    def test_drops_jobs_without_either(self, machine):
        w = make(machine, submit_time=[0.0, 1.0], run_time=[MISSING, 10.0], used_procs=[4, 2])
        assert np.array_equal(cpu_work(w), [20.0])


class TestNormalizedParallelism:
    def test_formula(self, machine):
        w = make(machine, submit_time=[0.0], run_time=[1.0], used_procs=[50])
        # 50 of 100 procs -> 64 of 128.
        assert np.array_equal(normalized_parallelism(w), [64.0])


class TestComputeStatistics:
    def test_machine_constants(self, machine, small_workload):
        s = compute_statistics(small_workload)
        assert s.machine_processors == 64
        assert s.scheduler_flexibility == 2
        assert s.allocation_flexibility == 3

    def test_rule1_substitutes_loads(self, machine):
        """If CPU load is missing, runtime load is used (and vice versa)."""
        w = make(
            machine,
            submit_time=[0.0, 50.0],
            wait_time=[0.0, 0.0],
            run_time=[100.0, 50.0],
            used_procs=[50, 20],
        )
        s = compute_statistics(w)
        assert not math.isnan(s.runtime_load)
        assert s.cpu_load == pytest.approx(s.runtime_load)

    def test_medians_and_intervals(self, machine):
        runs = np.arange(1.0, 102.0)  # 1..101
        w = make(
            machine,
            submit_time=np.arange(101.0),
            run_time=runs,
            used_procs=np.full(101, 10),
        )
        s = compute_statistics(w)
        assert s.runtime_median == pytest.approx(51.0)
        assert s.runtime_interval == pytest.approx(90.0)
        assert s.procs_median == 10.0
        assert s.procs_interval == 0.0

    def test_coverage_50(self, machine):
        runs = np.arange(1.0, 102.0)
        w = make(
            machine,
            submit_time=np.arange(101.0),
            run_time=runs,
            used_procs=np.full(101, 10),
        )
        s = compute_statistics(w, coverage=0.5)
        assert s.runtime_interval == pytest.approx(50.0)

    def test_pct_completed(self, machine):
        w = make(
            machine,
            submit_time=[0.0, 1.0, 2.0, 3.0],
            run_time=[1.0] * 4,
            used_procs=[1] * 4,
            status=[1, 1, 0, 5],
        )
        assert compute_statistics(w).pct_completed == pytest.approx(0.5)

    def test_pct_completed_all_missing(self, machine):
        w = make(
            machine,
            submit_time=[0.0],
            run_time=[1.0],
            used_procs=[1],
            status=[MISSING],
        )
        assert math.isnan(compute_statistics(w).pct_completed)

    def test_norm_users(self, machine):
        w = make(
            machine,
            submit_time=np.arange(10.0),
            run_time=np.ones(10),
            used_procs=np.ones(10, dtype=int),
            user_id=[0, 0, 1, 1, 1, 2, 2, 2, 2, 2],
        )
        assert compute_statistics(w).norm_users == pytest.approx(0.3)

    def test_by_sign_keys(self, small_workload):
        signs = compute_statistics(small_workload).by_sign()
        assert set(signs) == {
            "MP", "SF", "AL", "RL", "CL", "E", "U", "C",
            "Rm", "Ri", "Pm", "Pi", "Nm", "Ni", "Cm", "Ci", "Im", "Ii",
        }

    def test_empty_workload_all_nan(self, machine):
        w = Workload.from_arrays(machine=machine, submit_time=[])
        s = compute_statistics(w)
        assert math.isnan(s.runtime_median)
        assert math.isnan(s.interarrival_median)
