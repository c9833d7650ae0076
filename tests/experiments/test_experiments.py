"""Integration tests: every experiment runs and its paper claims hold.

These are the reproduction's acceptance tests — each asserts the *shape*
findings of the corresponding table/figure, at reduced job counts to stay
fast.  A claim failure here means the reproduction has drifted.
"""

import numpy as np
import pytest

from repro.experiments import (
    run_figure1,
    run_figure2,
    run_figure3,
    run_figure4,
    run_figure5,
    run_load_alteration,
    run_parameterization,
    run_table1,
    run_table2,
    run_table3,
)
from repro.models.registry import MODEL_NAMES


def assert_claims(result):
    claims = result.claims() if callable(getattr(result, "claims")) else result.claims
    failed = [c for c in claims if not c.holds]
    assert not failed, "claims failed:\n" + "\n".join(c.render() for c in failed)


@pytest.fixture(scope="module")
def table3_result():
    return run_table3(n_jobs=6000, seed=0)


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table1(n_jobs=4000, seed=0)

    def test_all_cells_within_band(self, result):
        assert result.worst_cells(tolerance=0.3) == []

    def test_ratio_accessor(self, result):
        assert result.ratio("CTC", "Rm") == pytest.approx(1.0, abs=0.1)

    def test_render_contains_workloads(self, result):
        text = result.render()
        assert "CTC" in text and "SDSCb" in text


class TestFigure1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure1()

    def test_claims(self, result):
        assert_claims(result)

    def test_headline_numbers(self, result):
        assert result.coplot.alienation == pytest.approx(0.07, abs=0.04)
        assert result.coplot.average_correlation == pytest.approx(0.88, abs=0.05)

    def test_render(self, result):
        assert "Figure 1" in result.render()


class TestFigure2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure2()

    def test_claims(self, result):
        assert_claims(result)

    def test_better_fit_than_figure1(self, result):
        assert result.coplot.alienation <= 0.10

    def test_interactive_cluster_tight(self, result):
        assert result.interactive_cluster_diameter < result.mean_pairwise_distance


class TestTable2:
    def test_all_cells_within_band(self):
        result = run_table2(n_jobs=4000, seed=0)
        assert result.worst_cells(tolerance=0.3) == []


class TestFigure3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure3()

    def test_claims(self, result):
        assert_claims(result)

    def test_lanl_regime_change_detected(self, result):
        assert result.lanl_year2_spread > 2 * result.lanl_year1_spread

    def test_render_reports_spreads(self, result):
        text = result.render()
        assert "Figure 3" in text
        assert f"SDSC sub-log diameter: {result.sdsc_diameter:.3f}" in text
        assert f"distance from LANL: {result.lanl_year2_spread:.3f}" in text


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure4(n_jobs=5000, seed=0)

    def test_claims(self, result):
        assert_claims(result)

    def test_lublin_most_central_model(self, result):
        ranking = result.centroid_ranking()
        models = [n for n in ranking if n in result.model_stats]
        assert models[0] == "Lublin"

    def test_jann_near_ctc(self, result):
        assert result.nearest_production("Jann") in ("CTC", "KTH")

    def test_render_lists_each_model_neighbourhood(self, result):
        text = result.render()
        assert "Figure 4" in text
        for model in MODEL_NAMES:
            assert f"{model}: nearest observations: " in text


class TestParameterization:
    @pytest.fixture(scope="class")
    def result(self):
        return run_parameterization()

    def test_claims(self, result):
        assert_claims(result)

    def test_paper_triple_quality(self, result):
        assert result.paper_triple_score.alienation <= 0.10
        assert result.paper_triple_score.average_correlation >= 0.85

    def test_best_has_highest_average_correlation(self, result):
        assert result.best is result.scores[0]
        assert result.best.alienation <= 0.15
        assert result.best.average_correlation == max(
            s.average_correlation for s in result.scores
        )

    def test_render_lists_every_subset(self, result):
        text = result.render()
        for score in result.scores:
            assert "{" + ",".join(score.signs) + "}" in text
        assert "Paper's triple {AL,Pm,Im}" in text


class TestLoadAlteration:
    @pytest.fixture(scope="class")
    def result(self):
        return run_load_alteration(n_jobs=4000, seed=0)

    def test_claims(self, result):
        assert_claims(result)

    def test_observed_positive_load_interarrival_correlation(self, result):
        assert result.observed_correlations[
            "load vs inter-arrival median (RL, Im)"
        ] > 0.5

    def test_all_techniques_raise_load(self, result):
        for load in result.technique_loads.values():
            assert load > result.baseline_load

    def test_render_lists_techniques_and_correlations(self, result):
        text = result.render()
        for name in [*result.technique_loads, *result.observed_correlations]:
            assert name in text


class TestTable3:
    def test_claims(self, table3_result):
        assert_claims(table3_result)

    def test_production_above_models(self, table3_result):
        assert table3_result.production_mean > table3_result.model_mean

    def test_cell_agreement(self, table3_result):
        assert table3_result.mean_absolute_deviation() < 0.15

    def test_render_has_both_rows(self, table3_result):
        text = table3_result.render()
        assert "CTC (paper)" in text and "CTC (ours)" in text


class TestFigure5:
    def test_claims_on_measured(self, table3_result):
        result = run_figure5(table3=table3_result)
        assert_claims(result)

    def test_on_published_data(self):
        """Running Co-plot on the paper's own Table 3 reproduces the
        production/model separation directly."""
        result = run_figure5(use_published=True)
        failed = [c for c in result.claims if not c.holds]
        assert not failed, "\n".join(c.render() for c in failed)


class TestLoadScaling:
    def test_scale_workload_fields(self):
        from repro.experiments.load_alteration import scale_workload
        from repro.models import LublinModel

        w = LublinModel().generate(1500, seed=0)
        fast = scale_workload(w, field="interarrival", factor=0.5)
        gaps_before = np.diff(w.column("submit_time"))
        gaps_after = np.diff(fast.column("submit_time"))
        assert gaps_after.sum() == pytest.approx(0.5 * gaps_before.sum(), rel=1e-6)

        longer = scale_workload(w, field="run_time", factor=2.0)
        assert np.allclose(longer.column("run_time"), 2.0 * w.column("run_time"))

        wider = scale_workload(w, field="used_procs", factor=2.0)
        assert wider.column("used_procs").max() <= w.machine.processors

    def test_scale_workload_validation(self):
        from repro.experiments.load_alteration import scale_workload
        from repro.models import LublinModel

        w = LublinModel().generate(200, seed=0)
        with pytest.raises(ValueError, match="factor"):
            scale_workload(w, field="run_time", factor=0.0)
        with pytest.raises(ValueError, match="field"):
            scale_workload(w, field="wait_time", factor=2.0)
