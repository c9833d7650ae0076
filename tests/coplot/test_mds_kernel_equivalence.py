"""Property tests: vectorized MDS kernels ≡ their scalar oracles.

Batched SMACOF and the block-merge PAVA are perf rewrites of scalar
loops, which live on in ``tests/oracles/mds.py``; these tests are the
permanent guarantee that the rewrite changed the speed and nothing else.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coplot.mds.base import pairwise_euclidean
from repro.coplot.mds.monotone import _pava_rows, isotonic_regression
from repro.coplot.mds.smacof import smacof

from oracles.mds import isotonic_regression_reference, smacof_reference

# Values with frequent exact ties (halves) plus generic floats: PAVA's
# block merging is most delicate around equal neighbours.
_tieable = st.one_of(
    st.integers(min_value=-8, max_value=8).map(lambda v: v / 2.0),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)


class TestPavaEquivalence:
    @given(y=st.lists(_tieable, min_size=1, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_unweighted_matches_reference(self, y):
        got = isotonic_regression(y)
        want = isotonic_regression_reference(y)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @given(
        y=st.lists(_tieable, min_size=1, max_size=40),
        wseed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=150, deadline=None)
    def test_weighted_matches_reference(self, y, wseed):
        w = np.random.default_rng(wseed).uniform(0.1, 5.0, size=len(y))
        got = isotonic_regression(y, weights=w)
        want = isotonic_regression_reference(y, weights=w)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @given(y=st.lists(_tieable, min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_result_is_monotone_and_mean_preserving(self, y):
        fit = isotonic_regression(y)
        assert np.all(np.diff(fit) >= -1e-12)
        assert np.mean(fit) == pytest.approx(np.mean(y), abs=1e-9)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        k=st.integers(min_value=1, max_value=5),
        m=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_rows_kernel_matches_per_row_fits(self, seed, k, m):
        """The flat batched merge never couples rows: row i of the batch
        equals the 1-D fit of row i alone."""
        y2d = np.random.default_rng(seed).normal(size=(k, m))
        got = _pava_rows(y2d)
        for i in range(k):
            np.testing.assert_allclose(
                got[i], isotonic_regression_reference(y2d[i]), rtol=0, atol=1e-12
            )


class TestSmacofEngineEquivalence:
    @pytest.mark.parametrize("transform", ["isotonic", "rank-image", "metric"])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_batched_matches_reference(self, transform, seed):
        rng = np.random.default_rng(seed + 100)
        d = pairwise_euclidean(rng.normal(size=(12, 4)))
        a = smacof(d, seed=seed, n_init=8, transform=transform)
        b = smacof_reference(d, seed=seed, n_init=8, transform=transform)
        # Same seed must select the same restart and land on the same map.
        np.testing.assert_allclose(a.coords, b.coords, rtol=0, atol=1e-9)
        assert a.alienation == pytest.approx(b.alienation, abs=1e-9)
        assert a.stress == pytest.approx(b.stress, abs=1e-9)
        assert a.n_iter == b.n_iter
        assert a.converged == b.converged

    @pytest.mark.parametrize("transform", ["isotonic", "rank-image"])
    @pytest.mark.parametrize("seed", range(10))
    def test_tied_city_block_matches_from_random_start(self, transform, seed):
        """Integer-valued city-block dissimilarities tie, so the batched
        per-row tie path (a fresh lexsort every iteration) runs.  From a
        random start the two paths agree to rounding; from the classical
        start a degenerate configuration can amplify rounding noise on
        such problems, so that start is not part of this contract."""
        rng = np.random.default_rng(seed)
        n = 4 + seed
        x = rng.integers(0, 4, size=(n, 3)).astype(float)
        x[-1] = x[0]  # a duplicated observation: a zero dissimilarity too
        d = np.abs(x[:, None, :] - x[None, :, :]).sum(axis=2)
        sv = d[np.triu_indices(n, 1)]
        assert np.unique(sv).size < sv.size
        init = rng.normal(size=(n, 2))
        a = smacof(d, init=init, transform=transform)
        b = smacof_reference(d, init=init, transform=transform)
        np.testing.assert_allclose(a.coords, b.coords, rtol=0, atol=1e-9)
        assert a.alienation == pytest.approx(b.alienation, abs=1e-9)
        assert a.stress == pytest.approx(b.stress, abs=1e-9)
        assert a.n_iter == b.n_iter
        assert a.converged == b.converged

    def test_single_restart_matches(self):
        d = pairwise_euclidean(np.random.default_rng(5).normal(size=(9, 3)))
        a = smacof(d, seed=7, n_init=1)
        b = smacof_reference(d, seed=7, n_init=1)
        np.testing.assert_allclose(a.coords, b.coords, rtol=0, atol=1e-9)
