"""Tests for the MDS stack: classical scaling, alienation, SMACOF, SSA."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coplot import (
    classical_mds,
    coefficient_of_alienation,
    kruskal_stress,
    monotonicity_coefficient,
    smacof,
    smallest_space_analysis,
)
from repro.coplot.mds.base import (
    MDSResult,
    check_dissimilarity,
    pairwise_euclidean,
    upper_triangle,
)


def random_config(n, dim, seed=0):
    return np.random.default_rng(seed).normal(size=(n, dim))


class TestBaseHelpers:
    def test_pairwise_euclidean_known(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert pairwise_euclidean(x)[0, 1] == pytest.approx(5.0)

    def test_upper_triangle_order(self):
        m = np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]], dtype=float)
        assert np.array_equal(upper_triangle(m), [1, 2, 3])

    def test_check_rejects_asymmetric(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            check_dissimilarity(m)

    def test_check_rejects_negative(self):
        m = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="non-negative"):
            check_dissimilarity(m)

    def test_check_rejects_nonzero_diagonal(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="zero diagonal"):
            check_dissimilarity(m)

    def test_check_rejects_nan(self):
        m = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="NaN"):
            check_dissimilarity(m)

    def test_check_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            check_dissimilarity(np.zeros((2, 3)))


class TestClassicalMDS:
    def test_recovers_euclidean_configuration(self):
        x = random_config(10, 2)
        d = pairwise_euclidean(x)
        coords = classical_mds(d, dim=2)
        assert np.allclose(pairwise_euclidean(coords), d, atol=1e-8)

    def test_centred_output(self):
        d = pairwise_euclidean(random_config(8, 2, seed=1))
        coords = classical_mds(d)
        assert np.allclose(coords.mean(axis=0), 0.0, atol=1e-10)

    def test_higher_dim_projection(self):
        x = random_config(12, 5, seed=2)
        d = pairwise_euclidean(x)
        coords = classical_mds(d, dim=2)
        assert coords.shape == (12, 2)

    def test_dim_validation(self):
        d = pairwise_euclidean(random_config(4, 2))
        with pytest.raises(ValueError):
            classical_mds(d, dim=0)
        with pytest.raises(ValueError):
            classical_mds(d, dim=5)


class TestAlienation:
    def test_perfect_monotone_gives_mu_one(self):
        s = np.array([1.0, 2.0, 3.0, 4.0])
        d = np.array([10.0, 20.0, 30.0, 40.0])
        assert monotonicity_coefficient(s, d) == pytest.approx(1.0)
        assert coefficient_of_alienation(s, d) == pytest.approx(0.0)

    def test_reversed_gives_mu_minus_one(self):
        s = np.array([1.0, 2.0, 3.0])
        d = np.array([3.0, 2.0, 1.0])
        assert monotonicity_coefficient(s, d) == pytest.approx(-1.0)
        # Eq. 4 is symmetric in the sign of mu: a perfectly *reversed*
        # order also has zero alienation (the map is a mirror image).
        assert coefficient_of_alienation(s, d) == pytest.approx(0.0)

    def test_random_order_high_alienation(self):
        rng = np.random.default_rng(2)
        s = rng.random(45)
        d = rng.random(45)
        assert coefficient_of_alienation(s, d) > 0.5

    def test_nonlinear_monotone_still_perfect(self):
        """Weak monotonicity only needs order agreement, not linearity."""
        s = np.array([1.0, 2.0, 3.0, 4.0])
        assert monotonicity_coefficient(s, np.exp(s)) == pytest.approx(1.0)

    def test_all_ties_defined(self):
        s = np.array([1.0, 1.0, 1.0])
        d = np.array([2.0, 3.0, 4.0])
        assert monotonicity_coefficient(s, d) == 1.0

    @given(st.integers(min_value=3, max_value=20))
    def test_property_bounded(self, n):
        rng = np.random.default_rng(n)
        s, d = rng.random(n), rng.random(n)
        mu = monotonicity_coefficient(s, d)
        assert -1.0 <= mu <= 1.0

    def test_accepts_matrices_and_configs(self):
        x = random_config(6, 2)
        d = pairwise_euclidean(x)
        # s as matrix, d as configuration: a perfect fit.
        assert coefficient_of_alienation(d, x) == pytest.approx(0.0, abs=1e-12)

    def test_stress_zero_for_equal(self):
        d = np.array([1.0, 2.0])
        assert kruskal_stress(d, d) == 0.0

    def test_stress_positive_for_mismatch(self):
        assert kruskal_stress(np.array([1.0, 2.0]), np.array([2.0, 1.0])) > 0


class TestSmacof:
    @pytest.mark.parametrize("transform", ["metric", "isotonic", "rank-image"])
    def test_perfect_recovery_2d(self, transform):
        d = pairwise_euclidean(random_config(10, 2, seed=3))
        res = smacof(d, transform=transform, seed=0, n_init=4)
        assert res.alienation < 1e-4
        assert res.converged

    def test_result_fields(self):
        d = pairwise_euclidean(random_config(6, 2))
        res = smacof(d, seed=0, n_init=2)
        assert isinstance(res, MDSResult)
        assert res.n_observations == 6
        assert res.dim == 2
        assert res.n_iter >= 1

    def test_deterministic_for_seed(self):
        d = pairwise_euclidean(random_config(8, 3, seed=4))
        a = smacof(d, seed=7, n_init=3)
        b = smacof(d, seed=7, n_init=3)
        assert np.array_equal(a.coords, b.coords)

    def test_output_centred(self):
        d = pairwise_euclidean(random_config(8, 3, seed=5))
        res = smacof(d, seed=0)
        assert np.allclose(res.coords.mean(axis=0), 0.0, atol=1e-8)

    def test_explicit_init_used(self):
        x = random_config(8, 2, seed=6)
        d = pairwise_euclidean(x)
        res = smacof(d, init=x, transform="metric")
        # Starting at the answer: converges immediately to zero stress.
        assert res.stress < 1e-10

    def test_init_shape_validated(self):
        d = pairwise_euclidean(random_config(5, 2))
        with pytest.raises(ValueError, match="init"):
            smacof(d, init=np.zeros((4, 2)))

    def test_degenerate_all_zero(self):
        res = smacof(np.zeros((4, 4)))
        assert res.alienation == 0.0
        assert np.allclose(res.coords, 0.0)

    def test_parameter_validation(self):
        d = pairwise_euclidean(random_config(5, 2))
        with pytest.raises(ValueError, match="transform"):
            smacof(d, transform="bogus")
        with pytest.raises(ValueError, match="n_init"):
            smacof(d, n_init=0)
        with pytest.raises(ValueError, match="dim"):
            smacof(d, dim=0)

    def test_nonmetric_beats_metric_on_transformed_distances(self):
        """A monotone distortion of perfect distances: nonmetric MDS should
        still reach ~zero alienation, metric need not."""
        d = pairwise_euclidean(random_config(12, 2, seed=8))
        warped = d**3  # strictly monotone -> same order
        res = smacof(warped, transform="isotonic", seed=0, n_init=4)
        assert res.alienation < 1e-3


class TestSSA:
    def test_defaults_are_deterministic(self):
        d = pairwise_euclidean(random_config(9, 4, seed=9))
        a = smallest_space_analysis(d)
        b = smallest_space_analysis(d)
        assert np.array_equal(a.coords, b.coords)

    def test_quality_on_projectable_data(self):
        d = pairwise_euclidean(random_config(10, 2, seed=10))
        res = smallest_space_analysis(d)
        assert res.alienation < 1e-4

    def test_moderate_alienation_on_high_dim(self):
        d = pairwise_euclidean(random_config(12, 8, seed=11))
        res = smallest_space_analysis(d)
        # 8-D data cannot map perfectly to 2-D, but SSA should stay sane.
        assert 0.0 < res.alienation < 0.5


class TestChunkedAlienation:
    def test_chunked_path_matches_direct(self):
        """Above the chunk threshold the block-accumulated sums must equal
        the full broadcast exactly."""
        rng = np.random.default_rng(7)
        m = 3000  # beyond the chunk threshold
        s = rng.random(m)
        d = s + 0.2 * rng.random(m)
        ds = s[:, None] - s[None, :]
        dd = d[:, None] - d[None, :]
        direct = float(np.sum(ds * dd)) / float(np.sum(np.abs(ds) * np.abs(dd)))
        assert monotonicity_coefficient(s, d) == pytest.approx(direct, abs=1e-12)

    def test_large_configuration_workable(self):
        """A 120-observation map (7140 pairs) computes without blowing
        memory — the production-scale path."""
        x = random_config(120, 3, seed=8)
        d = pairwise_euclidean(x)
        theta = coefficient_of_alienation(d, x)
        assert theta == pytest.approx(0.0, abs=1e-10)
