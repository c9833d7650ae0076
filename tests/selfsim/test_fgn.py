"""Tests for the fractional Gaussian noise generator."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.selfsim import fgn, fgn_autocovariance


class TestAutocovariance:
    def test_white_noise_case(self):
        gamma = fgn_autocovariance(0.5, 5)
        assert gamma[0] == pytest.approx(1.0)
        assert np.allclose(gamma[1:], 0.0, atol=1e-12)

    def test_variance_is_sigma_squared(self):
        assert fgn_autocovariance(0.7, 3, sigma=2.0)[0] == pytest.approx(4.0)

    def test_persistent_positive_covariance(self):
        gamma = fgn_autocovariance(0.8, 10)
        assert np.all(gamma > 0)

    def test_antipersistent_negative_lag1(self):
        gamma = fgn_autocovariance(0.3, 5)
        assert gamma[1] < 0

    @given(st.floats(min_value=0.05, max_value=0.95))
    def test_property_decay(self, h):
        gamma = fgn_autocovariance(h, 50)
        # |gamma(k)| decays at long lags for any H.
        assert abs(gamma[49]) <= abs(gamma[1]) + 1e-9

    def test_h_bounds(self):
        with pytest.raises(ValueError):
            fgn_autocovariance(1.0, 3)
        with pytest.raises(ValueError):
            fgn_autocovariance(0.0, 3)


class TestFgn:
    def test_length(self):
        assert fgn(1000, 0.7, seed=0).shape == (1000,)

    def test_deterministic(self):
        assert np.array_equal(fgn(256, 0.8, seed=5), fgn(256, 0.8, seed=5))

    def test_h_half_is_white_noise(self, rng):
        x = fgn(50000, 0.5, seed=1)
        lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(lag1) < 0.02

    def test_marginal_standard_normal(self):
        x = fgn(100000, 0.6, seed=2)
        assert abs(x.mean()) < 0.05
        assert x.std() == pytest.approx(1.0, abs=0.05)

    def test_sigma_scales(self):
        x = fgn(50000, 0.6, sigma=3.0, seed=3)
        assert x.std() == pytest.approx(3.0, abs=0.2)

    def test_sample_autocovariance_matches_theory(self):
        h = 0.75
        x = fgn(2**17, h, seed=4)
        gamma = fgn_autocovariance(h, 4)
        centred = x - x.mean()
        for k in range(1, 4):
            sample = float(np.mean(centred[:-k] * centred[k:]))
            assert sample == pytest.approx(gamma[k], abs=0.03)

    @pytest.mark.parametrize("h", [0.6, 0.75, 0.9])
    def test_estimators_recover_h(self, h):
        from repro.selfsim import hurst_summary

        x = fgn(2**14, h, seed=6)
        est = hurst_summary(x)
        mean_est = np.mean(list(est.values()))
        assert mean_est == pytest.approx(h, abs=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            fgn(0, 0.7)
        with pytest.raises(ValueError):
            fgn(10, 1.2)
        with pytest.raises(ValueError):
            fgn(10, 0.7, sigma=0.0)

    def test_non_power_of_two_length(self):
        assert fgn(1000, 0.7, seed=0).shape == (1000,)
        assert fgn(1025, 0.7, seed=0).shape == (1025,)
