"""Tests for the event-driven simulator and metrics."""

import numpy as np
import pytest

from repro.scheduler import (
    EasyBackfillScheduler,
    FcfsScheduler,
    PowerOfTwoAllocator,
    UnlimitedAllocator,
    compute_metrics,
    simulate,
)
from repro.workload import MachineInfo, Workload
from repro.workload.fields import MISSING


def make_workload(jobs, procs=8, name="sim"):
    """jobs: list of (submit, runtime, size)."""
    submit, run, size = zip(*jobs)
    return Workload.from_arrays(
        machine=MachineInfo(name, procs),
        name=name,
        submit_time=np.array(submit, dtype=float),
        run_time=np.array(run, dtype=float),
        used_procs=np.array(size, dtype=int),
    )


class TestSimulatorBasics:
    def test_empty_machine_runs_immediately(self):
        w = make_workload([(0.0, 10.0, 4)])
        res = simulate(w, FcfsScheduler())
        assert res.start[0] == 0.0
        assert res.wait[0] == 0.0

    def test_sequential_contention(self):
        # Two machine-filling jobs: the second waits for the first.
        w = make_workload([(0.0, 10.0, 8), (1.0, 10.0, 8)])
        res = simulate(w, FcfsScheduler())
        assert res.start[1] == pytest.approx(10.0)
        assert res.wait[1] == pytest.approx(9.0)

    def test_parallel_fit(self):
        w = make_workload([(0.0, 10.0, 4), (0.0, 10.0, 4)])
        res = simulate(w, FcfsScheduler())
        assert np.allclose(res.start, 0.0)

    def test_capacity_never_exceeded(self):
        rng = np.random.default_rng(0)
        jobs = [
            (float(t), float(rng.uniform(1, 40)), int(rng.integers(1, 9)))
            for t in np.sort(rng.uniform(0, 500, 120))
        ]
        w = make_workload(jobs)
        res = simulate(w, EasyBackfillScheduler())
        # Reconstruct busy processors over time from starts/ends.
        events = sorted(
            [(s, c) for s, c in zip(res.start, res.consumed)]
            + [(e, -c) for e, c in zip(res.end, res.consumed)]
        )
        busy = 0
        for _, delta in events:
            busy += delta
            assert busy <= 8

    def test_all_jobs_eventually_start(self):
        rng = np.random.default_rng(1)
        jobs = [
            (float(t), float(rng.uniform(1, 30)), int(rng.integers(1, 9)))
            for t in np.sort(rng.uniform(0, 300, 80))
        ]
        for policy in (FcfsScheduler(), EasyBackfillScheduler()):
            res = simulate(make_workload(jobs), policy)
            assert not np.any(np.isnan(res.start))
            assert np.all(res.start >= res.submit - 1e-9)

    def test_fcfs_order_preserved(self):
        rng = np.random.default_rng(2)
        jobs = [
            (float(t), float(rng.uniform(1, 30)), int(rng.integers(1, 9)))
            for t in np.sort(rng.uniform(0, 300, 60))
        ]
        res = simulate(make_workload(jobs), FcfsScheduler())
        # FCFS never reorders: start times are nondecreasing in submit order.
        assert np.all(np.diff(res.start) >= -1e-9)

    def test_allocator_inflates_consumption(self):
        w = make_workload([(0.0, 10.0, 3)], procs=8)
        res = simulate(w, FcfsScheduler(), PowerOfTwoAllocator())
        assert res.consumed[0] == 4

    def test_allocator_default_from_machine(self):
        m = MachineInfo("m", 8, allocation_flexibility=1)
        w = Workload.from_arrays(
            machine=m, submit_time=[0.0], run_time=[5.0], used_procs=[3]
        )
        res = simulate(w, FcfsScheduler())
        assert res.consumed[0] == 4  # power-of-two rank applied

    def test_unknown_runtime_jobs_skipped(self):
        w = make_workload([(0.0, 10.0, 4), (1.0, MISSING, 4)])
        res = simulate(w, FcfsScheduler())
        assert res.submit.shape == (1,)

    def test_estimate_factor_validation(self):
        w = make_workload([(0.0, 1.0, 1)])
        with pytest.raises(ValueError):
            simulate(w, FcfsScheduler(), estimate_factor=0.0)


class TestPolicyOrdering:
    @pytest.fixture(scope="class")
    def contended(self):
        rng = np.random.default_rng(3)
        n = 400
        jobs = [
            (float(t), float(rng.lognormal(3.0, 1.2)), int(rng.integers(1, 9)))
            for t in np.sort(rng.uniform(0, 4000, n))
        ]
        return make_workload(jobs)

    def test_easy_beats_fcfs(self, contended):
        fcfs = compute_metrics(simulate(contended, FcfsScheduler()))
        easy = compute_metrics(simulate(contended, EasyBackfillScheduler()))
        assert easy.mean_wait <= fcfs.mean_wait

    def test_flexible_allocation_not_worse(self, contended):
        easy = EasyBackfillScheduler()
        pow2 = compute_metrics(simulate(contended, easy, PowerOfTwoAllocator()))
        free = compute_metrics(simulate(contended, easy, UnlimitedAllocator()))
        assert free.mean_wait <= pow2.mean_wait


class TestMetrics:
    def test_known_values(self):
        w = make_workload([(0.0, 10.0, 8), (0.0, 10.0, 8)])
        res = simulate(w, FcfsScheduler())
        m = compute_metrics(res)
        assert m.n_jobs == 2
        assert m.mean_wait == pytest.approx(5.0)  # 0 and 10
        assert m.max_wait == pytest.approx(10.0)
        assert m.makespan == pytest.approx(20.0)
        assert m.utilization == pytest.approx(1.0)

    def test_bounded_slowdown_floor(self):
        # A 1-second job waiting 100s: bounded slowdown uses tau=10.
        w = make_workload([(0.0, 50.0, 8), (0.0, 1.0, 8)])
        res = simulate(w, FcfsScheduler())
        m = compute_metrics(res)
        # job 2: wait 50, runtime 1 -> (50+1)/10 = 5.1; job 1: 50/50=1.
        assert m.mean_bounded_slowdown == pytest.approx((1.0 + 5.1) / 2)

    def test_queue_depth_tracked(self):
        w = make_workload([(0.0, 100.0, 8), (1.0, 10.0, 8), (2.0, 10.0, 8)])
        res = simulate(w, FcfsScheduler())
        assert res.queue_depths.max() == 2

    def test_incomplete_simulation_rejected(self):
        from repro.scheduler.simulator import ScheduleResult

        res = ScheduleResult(
            submit=np.array([0.0]),
            start=np.array([np.nan]),
            runtime=np.array([1.0]),
            consumed=np.array([1]),
            queue_depth_times=np.array([0.0]),
            queue_depths=np.array([0]),
            machine_procs=4,
            scheduler_name="x",
        )
        with pytest.raises(ValueError, match="never started"):
            compute_metrics(res)

    def test_empty_workload(self):
        w = make_workload([(0.0, 1.0, 1)]).filter(np.zeros(1, dtype=bool))
        res = simulate(w, FcfsScheduler())
        m = compute_metrics(res)
        assert m.n_jobs == 0
        assert m.makespan == 0.0


class TestEstimateFactor:
    def test_overestimates_change_backfilling(self):
        """With inflated runtime estimates EASY sees less room before the
        shadow time, so backfilling decisions change."""
        rng = np.random.default_rng(9)
        jobs = [
            (float(t), float(rng.lognormal(3.5, 1.2)), int(rng.integers(1, 9)))
            for t in np.sort(rng.uniform(0, 3000, 300))
        ]
        w = make_workload(jobs)
        exact = simulate(w, EasyBackfillScheduler(), estimate_factor=1.0)
        inflated = simulate(w, EasyBackfillScheduler(), estimate_factor=10.0)
        # Both complete every job; schedules differ somewhere.
        assert not np.any(np.isnan(exact.start))
        assert not np.any(np.isnan(inflated.start))
        assert not np.allclose(exact.start, inflated.start)

    def test_fcfs_insensitive_to_estimates(self):
        rng = np.random.default_rng(10)
        jobs = [
            (float(t), float(rng.lognormal(3.0, 1.0)), int(rng.integers(1, 9)))
            for t in np.sort(rng.uniform(0, 2000, 200))
        ]
        w = make_workload(jobs)
        a = simulate(w, FcfsScheduler(), estimate_factor=1.0)
        b = simulate(w, FcfsScheduler(), estimate_factor=5.0)
        assert np.allclose(a.start, b.start)
