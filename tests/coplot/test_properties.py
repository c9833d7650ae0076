"""Cross-cutting invariance properties of the Co-plot/MDS stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coplot import (
    Coplot,
    arrow_correlation_matrix,
    pairwise_dissimilarity,
    procrustes_disparity,
    smacof,
)
from repro.coplot.mds.base import pairwise_euclidean
from repro.stats.correlation import correlation_matrix


class TestMdsInvariances:
    @given(scale=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=15)
    def test_alienation_scale_invariant(self, scale):
        """Uniform scaling of the dissimilarities preserves their order, so
        the nonmetric fit quality must be unchanged."""
        rng = np.random.default_rng(0)
        d = pairwise_euclidean(rng.normal(size=(9, 4)))
        a = smacof(d, seed=1, n_init=2)
        b = smacof(scale * d, seed=1, n_init=2)
        assert b.alienation == pytest.approx(a.alienation, abs=1e-6)

    def test_permutation_equivariance(self):
        """Relabelling the observations relabels the map (same geometry)."""
        rng = np.random.default_rng(1)
        d = pairwise_euclidean(rng.normal(size=(10, 3)))
        perm = rng.permutation(10)
        a = smacof(d, seed=2, n_init=2)
        b = smacof(d[np.ix_(perm, perm)], seed=2, n_init=2)
        assert b.alienation == pytest.approx(a.alienation, abs=0.02)
        assert procrustes_disparity(a.coords[perm], b.coords) < 0.05

    def test_monotone_distortion_invariance(self):
        """Nonmetric MDS sees only the order: any strictly increasing
        transform of the dissimilarities yields the same map."""
        rng = np.random.default_rng(2)
        d = pairwise_euclidean(rng.normal(size=(10, 2)))
        a = smacof(d, seed=3, n_init=4)
        b = smacof(np.sqrt(d), seed=3, n_init=4)
        assert procrustes_disparity(a.coords, b.coords) < 0.05


class TestCoplotSemantics:
    def test_arrow_cosines_track_data_correlations(self):
        """Section 2: 'the cosines of angles between these arrows are
        approximately proportional to the correlations between their
        associated variables' — verified on the paper's own data."""
        from repro.experiments.common import FIGURE2_SIGNS, production_matrix
        from repro.experiments.figure2 import FIGURE2_NAMES

        y, labels = production_matrix(FIGURE2_SIGNS, FIGURE2_NAMES)
        result = Coplot().fit(y, labels=labels, signs=list(FIGURE2_SIGNS))
        cosines = arrow_correlation_matrix(result.arrows)
        corr = correlation_matrix(y)
        p = len(result.signs)
        diffs = []
        for i in range(p):
            for j in range(i + 1, p):
                if np.isnan(corr[i, j]):
                    continue
                diffs.append(abs(cosines[i, j] - corr[i, j]))
        # 'Approximately proportional': most pairs land close.
        assert np.median(diffs) < 0.3

    def test_map_independent_of_variable_order(self):
        """Permuting the columns (variables) must not change the geometry."""
        rng = np.random.default_rng(3)
        base = rng.normal(size=(9, 2))
        y = np.column_stack([base[:, 0], base[:, 1], base.sum(axis=1), base[:, 0] * 2])
        perm = [2, 0, 3, 1]
        a = Coplot(n_init=2).fit(y)
        b = Coplot(n_init=2).fit(y[:, perm])
        assert procrustes_disparity(a.coords, b.coords) < 0.05

    def test_duplicated_observation_maps_to_same_point(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=(8, 4))
        y_dup = np.vstack([y, y[2]])
        result = Coplot(n_init=2).fit(y_dup)
        # Identical rows have zero dissimilarity; the map keeps them an
        # order of magnitude closer than the typical point spacing.
        spread = float(
            np.mean(np.linalg.norm(result.coords - result.coords.mean(axis=0), axis=1))
        )
        assert np.linalg.norm(result.coords[2] - result.coords[8]) < 0.15 * spread

    def test_city_block_dominates_euclidean(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(7, 5))
        s1 = pairwise_dissimilarity(z, metric="cityblock")
        s2 = pairwise_dissimilarity(z, metric="euclidean")
        off = ~np.eye(7, dtype=bool)
        assert np.all(s1[off] >= s2[off] - 1e-9)


def _paper_problem(figure):
    """Figure 1's or Figure 2's observation matrix, labels and signs."""
    from repro.experiments.common import FIGURE1_SIGNS, FIGURE2_SIGNS, production_matrix
    from repro.experiments.figure2 import FIGURE2_NAMES

    if figure == 1:
        y, labels = production_matrix(FIGURE1_SIGNS)
        return y, labels, list(FIGURE1_SIGNS)
    y, labels = production_matrix(FIGURE2_SIGNS, FIGURE2_NAMES)
    return y, labels, list(FIGURE2_SIGNS)


def _paper_fit(y, labels, signs):
    from repro.experiments.common import default_coplot

    return default_coplot(seed=0).fit(y, labels=labels, signs=signs)


class TestFitInvariants:
    """Invariants of the whole ``Coplot.fit`` on the paper's own data."""

    @pytest.mark.parametrize("figure", [1, 2])
    @pytest.mark.parametrize("scale,shift", [(1 / 3600, 0.0), (7.5, -3.0), (1e3, 1e6)])
    def test_affine_rescale_of_one_variable(self, figure, scale, shift):
        """Unit changes (seconds to hours, an offset) are erased by the
        z-score, so the map, Θ and every arrow stay put."""
        y, labels, signs = _paper_problem(figure)
        base = _paper_fit(y, labels, signs)
        for j in range(y.shape[1]):
            y2 = y.copy()
            y2[:, j] = scale * y2[:, j] + shift
            result = _paper_fit(y2, labels, signs)
            np.testing.assert_allclose(result.coords, base.coords, rtol=0, atol=1e-6)
            assert result.alienation == pytest.approx(base.alienation, abs=1e-6)
            for got, want in zip(result.arrows, base.arrows):
                assert got.correlation == pytest.approx(want.correlation, abs=1e-6)
                np.testing.assert_allclose(got.direction, want.direction, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("figure", [1, 2])
    def test_duplicated_variable_gets_a_coincident_arrow(self, figure):
        y, labels, signs = _paper_problem(figure)
        for j in range(y.shape[1]):
            result = _paper_fit(np.column_stack([y, y[:, j]]), labels, signs + ["copy"])
            original, copy = result.arrows[j], result.arrows[-1]
            np.testing.assert_allclose(copy.direction, original.direction, rtol=0, atol=1e-6)
            assert copy.correlation == pytest.approx(original.correlation, abs=1e-6)

    @pytest.mark.parametrize("figure", [1, 2])
    def test_three_observations_give_a_finite_map(self, figure):
        y, labels, signs = _paper_problem(figure)
        result = _paper_fit(y[:3], labels[:3], signs)
        assert result.coords.shape == (3, 2)
        assert np.all(np.isfinite(result.coords))
        assert np.isfinite(result.alienation)

    @pytest.mark.parametrize("figure", [1, 2])
    def test_all_missing_column_gives_a_finite_map(self, figure):
        y, labels, signs = _paper_problem(figure)
        y = y.copy()
        y[:, 2] = np.nan
        result = _paper_fit(y, labels, signs)
        assert np.all(np.isfinite(result.coords))
        assert np.isfinite(result.alienation)
        assert all(np.isfinite(a.correlation) for a in result.arrows)
