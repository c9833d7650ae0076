"""Tests for the model-validation framework and its GOF substrate."""

import math

import numpy as np
import pytest

from repro.models import LublinModel, rank_models, validate_model
from repro.stats import ks_statistic, qq_log_distance


class TestGof:
    def test_ks_identical_zero(self, rng):
        x = rng.lognormal(1.0, 1.0, 2000)
        assert ks_statistic(x, x) == 0.0

    def test_ks_disjoint_one(self):
        assert ks_statistic([1.0, 2.0], [10.0, 20.0]) == 1.0

    def test_ks_symmetric(self, rng):
        a, b = rng.normal(size=500), rng.normal(1.0, 1.0, 700)
        assert ks_statistic(a, b) == pytest.approx(ks_statistic(b, a))

    def test_ks_matches_scipy(self, rng):
        from scipy import stats as spstats

        a, b = rng.normal(size=400), rng.normal(0.5, 2.0, 300)
        ours = ks_statistic(a, b)
        theirs = spstats.ks_2samp(a, b).statistic
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_qq_identical_zero(self, rng):
        x = rng.lognormal(1.0, 1.0, 2000)
        assert qq_log_distance(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_qq_scale_shift_reads_in_decades(self, rng):
        x = rng.lognormal(1.0, 1.0, 20000)
        assert qq_log_distance(10.0 * x, x) == pytest.approx(1.0, abs=0.01)

    def test_qq_floor_protects_zeros(self):
        a = np.zeros(100)
        b = np.ones(100)
        assert math.isfinite(qq_log_distance(a, b))

    def test_qq_validation(self):
        with pytest.raises(ValueError):
            qq_log_distance([1.0, 2.0], [1.0, 2.0], n_quantiles=2)


class TestValidateModel:
    def test_self_comparison_scores_near_zero(self, synthesized_ctc):
        report = validate_model(synthesized_ctc, synthesized_ctc)
        assert report.variable_score() == pytest.approx(0.0, abs=1e-9)
        assert report.marginal_score() == pytest.approx(0.0, abs=1e-9)
        assert report.score() < 0.02

    def test_model_instance_accepted(self, synthesized_ctc):
        report = validate_model(
            LublinModel(), synthesized_ctc, n_jobs=3000, include_hurst=False
        )
        assert report.model_name == "Lublin"
        assert report.score() > 0.0

    def test_model_name_accepted(self, synthesized_ctc):
        report = validate_model(
            "Downey", synthesized_ctc, n_jobs=3000, include_hurst=False
        )
        assert report.model_name == "Downey"

    def test_report_fields(self, synthesized_ctc):
        report = validate_model(
            "Lublin", synthesized_ctc, n_jobs=3000, include_hurst=False
        )
        assert {v.sign for v in report.variables} <= {
            "Rm", "Ri", "Pm", "Pi", "Cm", "Ci", "Im", "Ii"
        }
        assert {m.attribute for m in report.marginals} == {
            "run_time", "used_procs", "interarrival"
        }

    def test_hurst_toggle(self, synthesized_ctc):
        fast = validate_model(
            "Lublin", synthesized_ctc, n_jobs=3000, include_hurst=False
        )
        assert fast.hurst_delta == {}
        assert not math.isnan(fast.score())

    def test_log_ratio_semantics(self):
        from repro.models.validation import VariableFit

        assert VariableFit("Rm", 100.0, 10.0).log_ratio == pytest.approx(1.0)
        assert math.isnan(VariableFit("Rm", 0.0, 10.0).log_ratio)


class TestRankModels:
    @pytest.fixture(scope="class")
    def ranked(self, synthesized_ctc):
        return rank_models(synthesized_ctc, n_jobs=6000, seed=0)

    def test_returns_all_five_sorted(self, ranked):
        assert len(ranked) == 5
        scores = [r.score() for r in ranked]
        assert scores == sorted(scores)

    def test_jann_wins_on_ctc(self, ranked):
        """Jann was fitted to (our) CTC: it must out-rank the other models
        on a CTC-like reference — the Figure 4 verdict as an API."""
        assert ranked[0].model_name == "Jann"

    def test_early_models_fit_ctc_poorly(self, ranked):
        order = [r.model_name for r in ranked]
        assert order.index("Jann") < order.index("Feitelson96")
        assert order.index("Jann") < order.index("Feitelson97")

    def test_custom_model_set(self, synthesized_ctc):
        reports = rank_models(
            synthesized_ctc,
            models=["Lublin", LublinModel(machine_procs=64)],
            n_jobs=2000,
            include_hurst=False,
        )
        assert len(reports) == 2
