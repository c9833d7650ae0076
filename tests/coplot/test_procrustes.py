"""Tests for Procrustes alignment."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coplot import procrustes_align, procrustes_disparity


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestAlign:
    @given(
        theta=st.floats(min_value=0, max_value=2 * np.pi),
        scale=st.floats(min_value=0.1, max_value=10.0),
        dx=st.floats(min_value=-100, max_value=100),
    )
    def test_property_undoes_similarity_transform(self, theta, scale, dx):
        rng = np.random.default_rng(5)
        ref = rng.normal(size=(8, 2))
        target = scale * ref @ rotation(theta).T + np.array([dx, 1.0])
        aligned = procrustes_align(ref, target)
        assert np.allclose(aligned, ref, atol=1e-6)

    def test_reflection_undone(self, rng):
        ref = rng.normal(size=(6, 2))
        target = ref.copy()
        target[:, 0] *= -1
        aligned = procrustes_align(ref, target)
        assert np.allclose(aligned, ref, atol=1e-8)

    def test_degenerate_target(self, rng):
        ref = rng.normal(size=(5, 2))
        aligned = procrustes_align(ref, np.zeros((5, 2)))
        assert np.allclose(aligned, ref.mean(axis=0))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="share a shape"):
            procrustes_align(rng.normal(size=(5, 2)), rng.normal(size=(4, 2)))


class TestDisparity:
    def test_zero_for_transformed_copy(self, rng):
        ref = rng.normal(size=(7, 2))
        target = 2.0 * ref @ rotation(1.0).T + 5.0
        assert procrustes_disparity(ref, target) == pytest.approx(0.0, abs=1e-10)

    def test_positive_for_noise(self, rng):
        ref = rng.normal(size=(7, 2))
        assert procrustes_disparity(ref, rng.normal(size=(7, 2))) > 0.1

    def test_bounded(self, rng):
        ref = rng.normal(size=(7, 2))
        d = procrustes_disparity(ref, rng.normal(size=(7, 2)))
        assert 0.0 <= d <= 1.0

    def test_coplot_stability_use_case(self, rng):
        """Two Coplot runs with different seeds give the same map up to
        rotation/reflection/scale when the data has genuine 2-D structure
        (pure noise has many equivalent local optima)."""
        from repro.coplot import Coplot

        base = rng.normal(size=(9, 2))
        y = np.column_stack([base[:, 0], base[:, 1], base[:, 0] + base[:, 1]])
        a = Coplot(seed=1).fit(y)
        b = Coplot(seed=99).fit(y)
        assert procrustes_disparity(a.coords, b.coords) < 0.05
