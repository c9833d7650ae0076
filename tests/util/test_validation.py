"""Tests for repro.util.validation."""

import numpy as np
import pytest

from repro.util.validation import (
    check_1d,
    check_2d,
    check_in_range,
    check_positive,
    check_probability,
)


class TestCheck1d:
    def test_coerces_list(self):
        out = check_1d([1, 2, 3])
        assert out.dtype == float and out.shape == (3,)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            check_1d(np.zeros((2, 2)))

    def test_min_len_enforced(self):
        with pytest.raises(ValueError, match="at least 5"):
            check_1d([1, 2], min_len=5)

    def test_error_names_argument(self):
        with pytest.raises(ValueError, match="myarg"):
            check_1d(np.zeros((2, 2)), "myarg")


class TestCheck2d:
    def test_coerces(self):
        assert check_2d([[1, 2]]).shape == (1, 2)

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            check_2d([1, 2, 3])


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(2.5) == 2.5

    def test_rejects_zero_strict(self):
        with pytest.raises(ValueError):
            check_positive(0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="must be > 0"):
            check_positive(-1.0)


class TestCheckProbability:
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_accepts_valid(self, p):
        assert check_probability(p) == p

    @pytest.mark.parametrize("p", [-0.01, 1.01])
    def test_rejects_invalid(self, p):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            check_probability(p)


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range(1.0, 1.0, 2.0) == 1.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValueError):
            check_in_range(1.0, 1.0, 2.0, inclusive=False)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="must be in"):
            check_in_range(3.0, 0.0, 2.0)
