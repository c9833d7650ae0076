"""Tests for the Hurst estimators (R/S, variance-time, periodogram, Whittle)."""

import math

import numpy as np
import pytest

from repro.selfsim import (
    aggregate_series,
    estimate_hurst,
    fgn,
    hurst_local_whittle,
    hurst_periodogram,
    hurst_rs,
    hurst_summary,
    hurst_variance_time,
    periodogram,
    rs_pox_points,
    rs_statistic,
    variance_time_points,
    HURST_METHODS,
)


class TestAggregate:
    def test_block_means(self):
        out = aggregate_series([1.0, 2.0, 3.0, 4.0], 2)
        assert np.array_equal(out, [1.5, 3.5])

    def test_partial_block_dropped(self):
        out = aggregate_series([1.0, 2.0, 3.0, 4.0, 5.0], 2)
        assert np.array_equal(out, [1.5, 3.5])

    def test_m_one_identity(self):
        x = np.array([3.0, 1.0, 2.0])
        assert np.array_equal(aggregate_series(x, 1), x)

    def test_validation(self):
        with pytest.raises(ValueError):
            aggregate_series([1.0, 2.0], 0)
        with pytest.raises(ValueError, match="no complete block"):
            aggregate_series([1.0, 2.0], 5)

    def test_white_noise_variance_shrinks_as_1_over_m(self, rng):
        x = rng.normal(size=100000)
        v1 = x.var()
        v10 = aggregate_series(x, 10).var()
        assert v10 == pytest.approx(v1 / 10.0, rel=0.1)


class TestRS:
    def test_rs_statistic_positive(self, rng):
        assert rs_statistic(rng.normal(size=100)) > 0

    def test_rs_statistic_constant_nan(self):
        assert math.isnan(rs_statistic(np.full(10, 1.0)))

    def test_pox_points_grow_with_window(self, rng):
        log_n, log_rs = rs_pox_points(rng.normal(size=4000))
        assert len(log_n) == len(log_rs) > 10
        # R/S grows with n on average.
        small = log_rs[log_n < np.median(log_n)].mean()
        large = log_rs[log_n >= np.median(log_n)].mean()
        assert large > small

    def test_white_noise_h_half(self):
        h, fit = hurst_rs(fgn(2**14, 0.5, seed=0))
        assert h == pytest.approx(0.55, abs=0.08)  # small-sample R/S bias is upward
        assert fit.r_squared > 0.8

    def test_persistent_h_higher(self):
        h_low, _ = hurst_rs(fgn(2**14, 0.55, seed=1))
        h_high, _ = hurst_rs(fgn(2**14, 0.9, seed=1))
        assert h_high > h_low + 0.1

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            hurst_rs(np.ones(8))


class TestVarianceTime:
    def test_points_monotone_decreasing_for_noise(self, rng):
        log_m, log_var = variance_time_points(rng.normal(size=20000))
        # Overall trend is down with slope ~ -1.
        from repro.stats.regression import linear_fit

        fit = linear_fit(log_m, log_var)
        assert fit.slope == pytest.approx(-1.0, abs=0.15)

    def test_white_noise_h_half(self):
        h, fit = hurst_variance_time(fgn(2**15, 0.5, seed=2))
        assert h == pytest.approx(0.5, abs=0.06)

    def test_recovers_h(self):
        h, _ = hurst_variance_time(fgn(2**15, 0.8, seed=3))
        assert h == pytest.approx(0.8, abs=0.08)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            hurst_variance_time(np.ones(10))


class TestPeriodogram:
    def test_frequencies_and_length(self, rng):
        x = rng.normal(size=256)
        omega, per = periodogram(x)
        assert omega.shape == per.shape == (128,)
        assert omega[0] == pytest.approx(2 * np.pi / 256)
        assert omega[-1] == pytest.approx(np.pi)

    def test_parseval_like_scaling(self, rng):
        """Sum of the periodogram tracks the series variance."""
        x = rng.normal(size=4096)
        omega, per = periodogram(x)
        # Per Eq. 18 normalization: mean of Per equals 2x variance (approx).
        assert per.mean() == pytest.approx(2.0 * x.var(), rel=0.1)

    def test_white_noise_flat_spectrum_h_half(self):
        h, _ = hurst_periodogram(fgn(2**15, 0.5, seed=4))
        assert h == pytest.approx(0.5, abs=0.07)

    def test_recovers_h(self):
        h, _ = hurst_periodogram(fgn(2**15, 0.85, seed=5))
        assert h == pytest.approx(0.85, abs=0.08)

    def test_pure_sine_peak(self):
        n = 1024
        t = np.arange(n)
        x = np.sin(2 * np.pi * 32 * t / n)
        omega, per = periodogram(x)
        assert np.argmax(per) == 31  # frequency index 32 -> position 31

    def test_low_fraction_validated(self):
        with pytest.raises(ValueError):
            hurst_periodogram(np.ones(100), low_fraction=1.5)


class TestWhittle:
    def test_white_noise(self):
        assert hurst_local_whittle(fgn(2**14, 0.5, seed=6)) == pytest.approx(0.5, abs=0.05)

    def test_recovers_h(self):
        assert hurst_local_whittle(fgn(2**14, 0.75, seed=7)) == pytest.approx(0.75, abs=0.07)

    def test_bandwidth_override(self):
        x = fgn(2**12, 0.7, seed=8)
        h = hurst_local_whittle(x, m=100)
        assert 0.4 < h < 1.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            hurst_local_whittle(np.ones(8))


class TestUnifiedApi:
    def test_dispatch_all_methods(self):
        x = fgn(4096, 0.7, seed=9)
        for method in HURST_METHODS:
            est = estimate_hurst(x, method)
            assert est.method == method
            assert est.n == 4096
            assert 0.3 < est.h < 1.1

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            estimate_hurst(np.ones(100), "magic")

    def test_fit_attached_for_graphical_methods(self):
        x = fgn(4096, 0.6, seed=10)
        assert estimate_hurst(x, "rs").fit is not None
        assert estimate_hurst(x, "whittle").fit is None

    def test_is_self_similar_flag(self):
        x = fgn(2**14, 0.9, seed=11)
        assert estimate_hurst(x, "variance").is_self_similar

    def test_summary_keys(self):
        x = fgn(2048, 0.6, seed=12)
        s = hurst_summary(x)
        assert set(s) == {"rs", "variance", "periodogram"}
        s_all = hurst_summary(x, include_whittle=True)
        assert "whittle" in s_all

    def test_summary_nan_on_failure(self):
        s = hurst_summary(np.ones(64))
        assert any(math.isnan(v) for v in s.values())
