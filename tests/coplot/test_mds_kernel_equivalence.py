"""Property tests: vectorized MDS kernels ≡ their scalar oracles.

Batched SMACOF and the block-merge PAVA are perf rewrites of scalar
loops, which live on in ``tests/oracles/mds.py``; these tests are the
permanent guarantee that the rewrite changed the speed and nothing else.
The lockstep loop is pinned the same way to the loop it replaced, bit
for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.coplot.mds.base import pairwise_euclidean
from repro.coplot.mds.monotone import _pava_rows
from repro.coplot.mds.smacof import _run_batch, smacof

from oracles.mds import isotonic_regression_reference, run_batch_reference, smacof_reference

_TRANSFORMS = ["metric", "isotonic", "rank-image"]

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
        """A one-row batch is the 1-D fit."""
        got = _pava_rows(np.array([y]))[0]
        want = isotonic_regression_reference(y)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @given(y=st.lists(_tieable, min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_result_is_monotone_and_mean_preserving(self, y):
        fit = _pava_rows(np.array([y]))[0]
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


def _lockstep_batch(seed, k, dim, start):
    """A (k, m) batch and its starts.  Rows alternate between tie-free
    Euclidean dissimilarities and tied integer city-block ones with a
    duplicated observation.  A ``coincident`` start puts points 0 and 1
    of the first and the last row on each other (a zero distance, which
    the last row carries to the slots of rows that stop before it); an
    ``all-equal`` start puts every point of the last row on one spot
    (disparities that collapse).  A ``one-pair`` start is ``coincident``
    with row 0 left one dissimilar pair, (0, 1), the pair that starts at
    distance 0: its metric disparities collapse at positive distances.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 10))
    iu = np.triu_indices(n, 1)
    rows = []
    for j in range(k):
        if (seed + j) % 2:
            x = rng.normal(size=(n, 3))
            d = np.sqrt(((x[:, None] - x[None]) ** 2).sum(axis=2))
        else:
            x = rng.integers(0, 4, size=(n, 3)).astype(float)
            x[-1] = x[0]
            d = np.abs(x[:, None] - x[None]).sum(axis=2)
        rows.append(d[iu])
    starts = rng.normal(size=(k, n, dim))
    if start in ("coincident", "one-pair"):
        starts[[0, -1], 1] = starts[[0, -1], 0]
    if start == "one-pair":
        rows[0][:] = 0.0
        rows[0][0] = 1.0
    elif start == "all-equal":
        starts[-1] = 0.5
    return np.stack(rows), n, starts


class TestLockstepLoopEquivalence:
    """``_run_batch`` against the loop it replaced (``run_batch_reference``):
    coords, stress, ``n_iter`` and ``converged`` are equal byte for byte."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        transform=st.sampled_from(_TRANSFORMS),
        dim=st.sampled_from([1, 2, 3]),
        k=st.sampled_from([1, 3, 8]),
        max_iter=st.sampled_from([1, 2, 7, 500]),
        tol=st.sampled_from([1e-10, 1e-3]),
        start=st.sampled_from(["random", "coincident", "all-equal", "one-pair"]),
    )
    @example(seed=1, transform="rank-image", dim=3, k=8, max_iter=500, tol=1e-3, start="coincident")
    @example(seed=2, transform="isotonic", dim=3, k=8, max_iter=500, tol=1e-3, start="all-equal")
    @example(seed=3, transform="metric", dim=3, k=3, max_iter=7, tol=1e-10, start="coincident")
    # Row 0 collapses while its distance sum is positive.
    @example(seed=4, transform="metric", dim=2, k=3, max_iter=500, tol=1e-10, start="one-pair")
    # The last row's zero distance lands in ratio slots other rows used.
    @example(
        seed=1, transform="rank-image", dim=1, k=8, max_iter=500, tol=1e-10, start="coincident"
    )
    @settings(max_examples=100, deadline=None)
    def test_same_bits(self, seed, transform, dim, k, max_iter, tol, start):
        sv, n, starts = _lockstep_batch(seed, k, dim, start)
        got = _run_batch(sv, n, starts, transform, max_iter, tol)
        want = run_batch_reference(sv, n, starts, transform, max_iter, tol)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("transform", _TRANSFORMS)
    def test_rows_stop_every_way_in_different_iterations(self, transform):
        """The batch the comparison needs: a row that collapses, rows that
        converge at different iterations, and rows stopped by the cap."""
        sv, n, starts = _lockstep_batch(2, 8, 3, "all-equal")
        _, stress, n_iter, converged = _run_batch(sv, n, starts, transform, 500, 1e-3)
        assert (n_iter[-1], stress[-1], converged[-1]) == (1, math.inf, False)
        assert converged[:-1].all()
        assert len(set(n_iter[:-1].tolist())) > 1
        _, stress, n_iter, converged = _run_batch(sv, n, starts, transform, 2, 1e-10)
        assert not converged.any()
        assert n_iter[:-1].tolist() == [2] * 7
        assert np.isfinite(stress[:-1]).all()

