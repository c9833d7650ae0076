"""Ablation benchmarks for the design choices DESIGN.md §6 calls out.

Each ablation re-runs a Figure 1-style analysis with one knob flipped and
checks the paper's implicit justification: the published choice is at
least as good as the alternative on its own criterion, and the map's
qualitative structure is (or is not) robust to the change.
"""

import numpy as np
import pytest

from repro.coplot import Coplot, procrustes_disparity
from repro.experiments.common import FIGURE1_SIGNS, production_matrix
from repro.workload.variables import observation_matrix
from repro.archive.targets import PRODUCTION_NAMES

pytestmark = pytest.mark.benchmark(group="ablations")


def _figure1_fit(**kwargs):
    y, labels = production_matrix(FIGURE1_SIGNS)
    return Coplot(**kwargs).fit(y, labels=labels, signs=list(FIGURE1_SIGNS))


class TestDissimilarityMetric:
    def test_bench_city_block_vs_euclidean(self, run_once):
        """The paper chose city-block distances (Eq. 2).  Both metrics must
        produce essentially the same map here (the choice is one of
        robustness, not of structure), and city-block must not be worse."""

        def run():
            return _figure1_fit(metric="cityblock"), _figure1_fit(metric="euclidean")

        city, euclid = run_once(run)
        assert city.alienation <= euclid.alienation + 0.05
        # Same qualitative map up to rotation/reflection/scale.
        assert procrustes_disparity(city.coords, euclid.coords) < 0.25


class TestMdsTransform:
    def test_bench_rank_image_vs_isotonic_vs_metric(self, run_once):
        """Guttman's rank-image (SSA) vs Kruskal isotonic vs metric SMACOF
        on the Figure 1 data: the two nonmetric flavours agree, and both
        fit at least as well as the metric variant (they optimize order,
        which is what Θ measures)."""

        def run():
            return {
                t: _figure1_fit(transform=t)
                for t in ("rank-image", "isotonic", "metric")
            }

        results = run_once(run)
        assert results["rank-image"].alienation <= results["metric"].alienation + 1e-6
        assert results["isotonic"].alienation <= results["metric"].alienation + 1e-6
        assert (
            procrustes_disparity(
                results["rank-image"].coords, results["isotonic"].coords
            )
            < 0.2
        )


class TestIntervalWidth:
    def test_bench_90_vs_50_interval(self, run_once):
        """Section 3: "the 50% interval was also tested, and gave virtually
        the same results."  Rebuild Figure 1's variable matrix with 50%
        intervals from the synthesized logs and compare the maps."""
        from repro.archive import synthesize_all
        from repro.workload.statistics import compute_statistics

        def run():
            logs = synthesize_all(n_jobs=6000, seed=0)
            maps = {}
            for coverage in (0.9, 0.5):
                stats = [
                    compute_statistics(logs[n], coverage=coverage)
                    for n in PRODUCTION_NAMES
                ]
                y, labels = observation_matrix(stats, FIGURE1_SIGNS)
                maps[coverage] = Coplot().fit(
                    y, labels=labels, signs=list(FIGURE1_SIGNS)
                )
            return maps

        maps = run_once(run)
        assert maps[0.9].alienation < 0.15
        assert maps[0.5].alienation < 0.15
        assert procrustes_disparity(maps[0.9].coords, maps[0.5].coords) < 0.3


class TestOrderMomentsVsMeanCV:
    def test_bench_tail_sensitivity(self, run_once):
        """Section 3's argument for order moments: removing the 0.1%
        'taily' jobs barely moves the median/interval but shifts the mean
        and CV dramatically.  Demonstrated on the uncapped CTC runtime
        marginal — the raw heavy-tailed distribution real logs exhibit
        before any administrative limit truncates it."""
        from repro.archive.calibrate import solve_lognormal_marginal
        from repro.stats.percentiles import interval90

        def run():
            dist = solve_lognormal_marginal(960.0, 57216.0)  # CTC runtimes
            run_times = np.sort(dist.sample(100000, seed=0))
            k = max(int(0.001 * len(run_times)), 1)
            trimmed = run_times[:-k]
            return {
                "median_shift": abs(np.median(trimmed) / np.median(run_times) - 1),
                "interval_shift": abs(interval90(trimmed) / interval90(run_times) - 1),
                "mean_shift": abs(trimmed.mean() / run_times.mean() - 1),
                "cv_shift": abs(
                    (trimmed.std() / trimmed.mean())
                    / (run_times.std() / run_times.mean())
                    - 1
                ),
            }

        shifts = run_once(run)
        # Order moments barely move...
        assert shifts["median_shift"] < 0.01
        assert shifts["interval_shift"] < 0.05
        # ...while the mean loses several percent and the CV tens of
        # percent (the paper quotes 5% and 40%).
        assert shifts["mean_shift"] > 0.03
        assert shifts["cv_shift"] > 0.15


class TestSeriesViewForHurst:
    def test_bench_job_order_vs_binned(self, run_once):
        """Job-order series (the paper's view) vs time-binned arrival
        counts: both must flag the same self-similar workload."""
        from repro.archive import synthesize_workload
        from repro.selfsim import binned_counts, hurst_summary, workload_series

        def run():
            w = synthesize_workload("LANL", n_jobs=16000, seed=0)
            job_order = np.mean(
                list(hurst_summary(workload_series(w, "interarrival")).values())
            )
            binned = np.mean(
                list(hurst_summary(binned_counts(w, bin_seconds=3600.0)).values())
            )
            return job_order, binned

        job_order, binned = run_once(run)
        assert job_order > 0.55
        assert binned > 0.55


class TestHurstGainCompensation:
    def test_bench_hurst_gain(self, run_once):
        """The synthesizer boosts its fGn input Hurst by HURST_GAIN to
        compensate the heavy-tail rank transform's attenuation.  Ablation:
        with gain 1.0 the measured H undershoots its target; with the
        shipped gain it lands within tolerance."""
        import numpy as np

        import repro.archive.synthesize as synth
        from repro.archive import synthesize_workload
        from repro.archive.targets import hurst_target
        from repro.selfsim import hurst_summary, workload_series

        def measure(gain: float) -> float:
            original = synth.HURST_GAIN
            synth.HURST_GAIN = gain
            try:
                w = synthesize_workload("LANL", n_jobs=12000, seed=5)
            finally:
                synth.HURST_GAIN = original
            return float(
                np.mean(list(hurst_summary(workload_series(w, "run_time")).values()))
            )

        def run():
            return measure(1.0), measure(synth.HURST_GAIN)

        uncompensated, compensated = run_once(run)
        target = hurst_target("LANL", "run_time")  # 0.80
        # Without the gain the transform attenuates the dependence...
        assert uncompensated < target - 0.04
        # ...with it, the measured level lands close to the published one.
        assert abs(compensated - target) < abs(uncompensated - target)
        assert abs(compensated - target) < 0.08
