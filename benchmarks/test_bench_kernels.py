"""Vectorized-kernel benchmarks and the hard speedup floors.

Two layers: pytest-benchmark timings of the fast kernels themselves
(tracked across runs like every other bench module), and the gated
speedup assertions — the ≥5× SWF-ingest, ≥3× SMACOF, ≥10× Lublin
generation, ≥3× bootstrap-stability, ≥2× FCFS-simulation and ≥4×
subset-fits floors, measured against the retained ``*_reference``
implementations (for subset fits, a plain ``Coplot.fit`` loop) exactly
as ``make perf-bench`` measures them (the traffic-scale kernels at
reduced sizes so the suite stays fast; ``make perf-bench`` runs the
full 1M-job / 100k-job workloads).
"""

import numpy as np
import pytest

from perf_kernels import (
    TARGETS,
    measure_bootstrap,
    measure_lublin,
    measure_rs_pox,
    measure_simulate_fcfs,
    measure_smacof,
    measure_subset_fits,
    measure_swf_ingest,
    simulator_workload,
    synthetic_workload,
)

pytestmark = pytest.mark.benchmark(group="kernels")


class TestKernelSpeedupFloors:
    def test_swf_ingest_speedup_floor(self):
        stats = measure_swf_ingest(reps=3)
        assert stats["speedup"] >= TARGETS["swf_ingest"], stats

    def test_smacof_speedup_floor(self):
        stats = measure_smacof(reps=2)
        assert stats["speedup"] >= TARGETS["smacof_n_init8"], stats

    def test_rs_pox_is_faster(self):
        # Informational kernel: no hard floor, but it must never regress
        # below the reference loop.
        stats = measure_rs_pox(reps=5)
        assert stats["speedup"] >= 1.5, stats

    def test_lublin_generate_speedup_floor(self):
        stats = measure_lublin(300_000, reps=1)
        assert stats["speedup"] >= TARGETS["lublin_generate"], stats

    def test_bootstrap_stability_speedup_floor(self):
        stats = measure_bootstrap(10, (14, 40), reps=1)
        assert stats["speedup"] >= TARGETS["bootstrap_stability"], stats

    def test_simulate_fcfs_speedup_floor(self):
        stats = measure_simulate_fcfs(60_000, reps=1)
        assert stats["speedup"] >= TARGETS["simulate_fcfs"], stats

    def test_subset_fits_speedup_floor(self):
        stats = measure_subset_fits(reps=1)
        assert stats["speedup"] >= TARGETS["subset_fits"], stats


class TestKernelBench:
    def test_bench_swf_parse_fast(self, benchmark, tmp_path):
        from repro.workload.swf import read_swf, write_swf

        path = tmp_path / "synthetic.swf"
        write_swf(synthetic_workload(30_000), str(path))
        w = benchmark(lambda: read_swf(str(path)))
        assert len(w) == 30_000

    def test_bench_swf_render_fast(self, benchmark):
        from repro.workload.swf import render_swf_text

        w = synthetic_workload(30_000)
        text = benchmark(lambda: render_swf_text(w))
        assert text.count("\n") >= 30_000

    def test_bench_smacof_batched(self, benchmark):
        from repro.coplot.mds.base import pairwise_euclidean
        from repro.coplot.mds.smacof import smacof

        d = pairwise_euclidean(np.random.default_rng(0).normal(size=(16, 5)))
        result = benchmark(lambda: smacof(d, seed=1, n_init=8, engine="batched"))
        assert result.coords.shape == (16, 2)

    def test_bench_rs_pox_windowed(self, benchmark):
        from repro.selfsim.rs_analysis import rs_pox_points

        x = np.cumsum(np.random.default_rng(3).standard_normal(4_000))
        log_ns, log_rs = benchmark(lambda: rs_pox_points(x))
        assert log_ns.size == log_rs.size > 0

    def test_bench_lublin_batched(self, benchmark):
        from repro.models import LublinModel

        model = LublinModel()
        w = benchmark(lambda: model.generate(50_000, seed=11, engine="batched"))
        assert len(w) == 50_000

    def test_bench_bootstrap_batched(self, benchmark):
        from repro.coplot.extend import bootstrap_stability

        rng = np.random.default_rng(7)
        y = rng.normal(size=(14, 40)) + np.linspace(0, 3, 40)
        result = benchmark(
            lambda: bootstrap_stability(y, n_boot=5, seed=0, engine="batched")
        )
        assert result.positional_spread.shape == (14,)

    def test_bench_subset_fits_batched(self, benchmark):
        from repro.coplot.selection import best_subset
        from repro.experiments.common import default_coplot, production_matrix
        from repro.experiments.parameterization import CANDIDATE_SIGNS

        signs = list(CANDIDATE_SIGNS)
        y, labels = production_matrix(signs)
        cp = default_coplot(seed=0, n_init=4)
        scores = benchmark(
            lambda: best_subset(y, 3, labels=labels, signs=signs, coplot=cp, top=56)
        )
        assert len(scores) <= 56

    def test_bench_simulate_fcfs_fast(self, benchmark):
        from repro.scheduler import FcfsScheduler, UnlimitedAllocator, simulate

        w = simulator_workload(20_000)
        result = benchmark(
            lambda: simulate(w, FcfsScheduler(), UnlimitedAllocator())
        )
        assert result.submit.size > 0
