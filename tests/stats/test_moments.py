"""Tests for repro.stats.moments."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stats.distributions import Exponential, Mixture
from repro.stats.moments import fit_hyper_erlang, sample_moments


class TestSampleMoments:
    def test_first_moment_is_mean(self):
        x = np.array([1.0, 2.0, 3.0])
        assert sample_moments(x, 1)[0] == pytest.approx(2.0)

    def test_three_moments(self):
        x = np.array([1.0, 2.0])
        m = sample_moments(x, 3)
        assert m[1] == pytest.approx(2.5)
        assert m[2] == pytest.approx(4.5)

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            sample_moments([1.0], 0)


class TestFitHyperErlang:
    def test_exact_moment_match_from_moments(self):
        fit = fit_hyper_erlang([10.0, 500.0, 60000.0])
        assert np.all(fit.relative_errors < 1e-8)

    def test_roundtrip_known_mixture(self):
        target = Mixture([0.3, 0.7], [Exponential(r) for r in [0.01, 1.0]])
        moments = [target.moment(k) for k in (1, 2, 3)]
        fit = fit_hyper_erlang(moments)
        assert fit.order == 1
        got = sorted(fit.distribution.rates)
        assert got[0] == pytest.approx(0.01, rel=1e-6)
        assert got[1] == pytest.approx(1.0, rel=1e-6)

    def test_fit_from_data(self, rng):
        data = rng.lognormal(2.0, 1.2, 30000)
        fit = fit_hyper_erlang(data)
        assert np.all(fit.relative_errors < 1e-8)

    def test_order_forced(self):
        fit = fit_hyper_erlang([10.0, 500.0, 60000.0], order=1)
        assert fit.order == 1

    def test_largest_order_at_least_smallest(self):
        moments = [10.0, 500.0, 60000.0]
        small = fit_hyper_erlang(moments, order="smallest")
        large = fit_hyper_erlang(moments, order="largest")
        assert large.order >= small.order

    def test_infeasible_raises(self):
        # Nearly deterministic: CV far below any order-bounded mixture.
        with pytest.raises(ValueError, match="no feasible"):
            fit_hyper_erlang([10.0, 100.0001, 1000.003], max_order=1)

    def test_bad_order_string(self):
        with pytest.raises(ValueError, match="order must be"):
            fit_hyper_erlang([10.0, 500.0, 60000.0], order="median")

    def test_negative_moment_rejected(self):
        with pytest.raises(ValueError):
            fit_hyper_erlang([-1.0, 2.0, 3.0])

    @given(
        p=st.floats(min_value=0.05, max_value=0.95),
        r1=st.floats(min_value=0.001, max_value=0.1),
        ratio=st.floats(min_value=5.0, max_value=500.0),
    )
    def test_property_recovers_two_branch_mixtures(self, p, r1, ratio):
        target = Mixture([p, 1.0 - p], [Exponential(r) for r in [r1, r1 * ratio]])
        moments = [target.moment(k) for k in (1, 2, 3)]
        fit = fit_hyper_erlang(moments, order=1)
        assert np.all(fit.relative_errors < 1e-6)
