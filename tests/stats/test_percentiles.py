"""Tests for repro.stats.percentiles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.stats.percentiles import interval, interval90

finite_arrays = hnp.arrays(
    float,
    st.integers(min_value=2, max_value=60),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestInterval:
    def test_90_interval_known(self):
        x = np.arange(101, dtype=float)  # 0..100
        assert interval90(x) == pytest.approx(90.0)

    def test_50_interval_known(self):
        x = np.arange(101, dtype=float)
        assert interval(x, 0.5) == pytest.approx(50.0)

    def test_constant_sample_zero_interval(self):
        assert interval90(np.full(10, 3.0)) == 0.0

    def test_full_coverage_is_the_range(self):
        assert interval([4.0, -1.0, 7.5, 2.0], 1.0) == pytest.approx(8.5)

    def test_zero_coverage_is_zero(self):
        assert interval(np.arange(11, dtype=float), 0.0) == 0.0

    def test_single_value_has_zero_width(self):
        assert interval90([42.0]) == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least 1"):
            interval90([])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            interval90(np.ones((3, 3)))

    @pytest.mark.parametrize("coverage", [-0.1, 1.5, float("nan")])
    def test_rejects_bad_coverage(self, coverage):
        with pytest.raises(ValueError, match="coverage"):
            interval(np.arange(10, dtype=float), coverage)

    @given(finite_arrays)
    def test_interval_nonnegative_and_monotone(self, x):
        assert 0.0 <= interval(x, 0.5) <= interval(x, 0.9) + 1e-9

    @given(finite_arrays)
    def test_interval_bounded_by_range(self, x):
        assert interval(x, 0.9) <= (x.max() - x.min()) + 1e-9

    def test_robust_to_outlier(self):
        """Section 3's motivation: order moments ignore the extreme tail."""
        x = np.concatenate([np.random.default_rng(0).uniform(0, 100, 1000), [1e12]])
        base = np.sort(x)[:-1]
        assert interval90(x) == pytest.approx(interval90(base), rel=0.02)
