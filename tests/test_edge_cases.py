"""Edge-case tests across modules: each exercises a distinct boundary
behaviour not covered by the per-module suites."""

import numpy as np
import pytest

from repro.coplot import Coplot, coplot_to_svg, render_ascii_map
from repro.workload import MachineInfo, Workload


class TestCoplotEdges:
    def test_minimum_size_analysis(self):
        """Three observations, one variable: the degenerate but legal case."""
        y = np.array([[1.0], [2.0], [3.0]])
        result = Coplot(n_init=2).fit(y)
        assert result.coords.shape == (3, 2)
        assert result.arrows[0].correlation > 0.9  # 1-D data embeds perfectly

    def test_all_identical_observations(self):
        y = np.ones((4, 3))
        result = Coplot(n_init=2).fit(y)
        # Constant variables normalize to zeros: every point at the origin.
        assert np.allclose(result.coords, 0.0)
        assert result.alienation == 0.0

    def test_single_nan_column(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=(6, 3))
        y[:, 2] = np.nan
        # An all-NaN variable still normalizes (stays NaN) but provides no
        # distance information; pairwise rescaling covers it.
        result = Coplot(n_init=2).fit(y)
        assert result.arrows[2].correlation == 0.0

    def test_svg_with_custom_arrow_length(self):
        rng = np.random.default_rng(1)
        result = Coplot(n_init=2).fit(rng.normal(size=(4, 2)))
        svg = coplot_to_svg(result, arrow_length=2.0)
        assert svg.count("<line") == 2

    def test_ascii_extreme_aspect(self):
        rng = np.random.default_rng(2)
        result = Coplot(n_init=2).fit(rng.normal(size=(4, 2)))
        out = render_ascii_map(result, width=16, height=8)
        assert out.count("\n") >= 8


class TestWorkloadEdges:
    def test_single_job_workload_statistics(self):
        from repro.workload import compute_statistics

        w = Workload.from_arrays(
            machine=MachineInfo("m", 8),
            submit_time=[0.0],
            run_time=[10.0],
            used_procs=[4],
        )
        stats = compute_statistics(w)
        assert stats.runtime_median == 10.0
        assert stats.runtime_interval == 0.0
        assert np.isnan(stats.interarrival_median)  # one job: no gaps

    def test_simultaneous_submits(self):
        from repro.workload import compute_statistics

        w = Workload.from_arrays(
            machine=MachineInfo("m", 8),
            submit_time=[5.0, 5.0, 5.0],
            run_time=[1.0, 2.0, 3.0],
            used_procs=[1, 1, 1],
        )
        stats = compute_statistics(w)
        assert stats.interarrival_median == 0.0

    def test_swf_field_render_parse_inverse(self):
        from repro.workload.fields import SWF_FIELDS

        for field in SWF_FIELDS:
            token = field.render(42.0 if field.dtype == "float" else 42)
            assert field.parse(token) == 42.0

    def test_filter_with_index_array_duplicates(self, small_workload):
        sub = small_workload.filter(np.array([0, 0, 1]))
        assert len(sub) == 3
        assert sub.column("job_id")[0] == sub.column("job_id")[1]


class TestSchedulerEdges:
    def test_zero_runtime_jobs(self):
        from repro.scheduler import FcfsScheduler, simulate

        w = Workload.from_arrays(
            machine=MachineInfo("m", 4),
            submit_time=[0.0, 0.0],
            run_time=[0.0, 0.0],
            used_procs=[4, 4],
        )
        res = simulate(w, FcfsScheduler())
        assert not np.any(np.isnan(res.start))

    def test_job_exactly_machine_sized(self):
        from repro.scheduler import EasyBackfillScheduler, simulate

        w = Workload.from_arrays(
            machine=MachineInfo("m", 16),
            submit_time=[0.0, 1.0],
            run_time=[10.0, 10.0],
            used_procs=[16, 16],
        )
        res = simulate(w, EasyBackfillScheduler())
        assert res.start[1] == pytest.approx(10.0)

    def test_gang_empty_workload(self):
        from repro.scheduler import simulate_gang

        w = Workload.from_arrays(machine=MachineInfo("m", 8), submit_time=[])
        res = simulate_gang(w)
        assert res.submit.size == 0
        assert res.makespan == 0.0


class TestSelfsimEdges:
    def test_hurst_on_short_series_raises_cleanly(self):
        from repro.selfsim import estimate_hurst

        with pytest.raises(ValueError):
            estimate_hurst(np.ones(12), "rs")

    def test_fgn_length_one(self):
        from repro.selfsim import fgn

        x = fgn(1, 0.7, seed=0)
        assert x.shape == (1,)

    def test_aggregate_full_series_single_block(self):
        from repro.selfsim import aggregate_series

        x = np.arange(10.0)
        out = aggregate_series(x, 10)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(4.5)


class TestArchiveEdges:
    def test_minimum_job_count(self):
        from repro.archive import synthesize_workload

        w = synthesize_workload("KTH", n_jobs=100, seed=0)
        assert len(w) == 100

    def test_generator_seed_object_reuse(self):
        """Passing one Generator to two synth calls advances it: the two
        logs differ (deliberate stream sharing)."""
        from repro.archive import synthesize_workload
        from repro.util.rng import as_generator

        gen = as_generator(3)
        a = synthesize_workload("KTH", n_jobs=200, seed=gen)
        b = synthesize_workload("KTH", n_jobs=200, seed=gen)
        assert not np.array_equal(a.column("run_time"), b.column("run_time"))
