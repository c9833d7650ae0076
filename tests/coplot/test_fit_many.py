"""Batched Co-plot fits: ``Coplot.fit_many`` ≡ a loop of ``Coplot.fit``.

``fit_many`` runs every problem's SMACOF restarts as rows of one lockstep
batch.  These tests pin that batching changes the speed and nothing
else: each problem of a generated stack gets the map, Θ, arrows,
iteration count and kept restart it gets when fitted alone.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.coplot.model as model_mod
from repro.coplot import Coplot
from repro.coplot.mds.base import upper_triangle

# The package re-exports the function under the module's own name.
smacof_mod = importlib.import_module("repro.coplot.mds.smacof")

_KINDS = ("tie-free", "tied", "identical", "missing")
_TRANSFORMS = ("rank-image", "isotonic", "metric")
_METRICS = ("cityblock", "euclidean", 3.0)


def _problem(kind: str, n: int, p: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "tie-free":
        return rng.normal(size=(n, p))
    if kind == "tied":
        # Few distinct levels: the city-block dissimilarities tie.
        return rng.integers(0, 3, size=(n, p)).astype(float)
    if kind == "identical":
        return np.tile(rng.normal(size=p), (n, 1))
    y = rng.normal(size=(n, p))
    holes = rng.random((n, p)) < 0.3
    holes[:, 0] = False  # every pair of observations shares a variable
    y[holes] = np.nan
    return y


@st.composite
def stacks(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=5))
    ys = [
        _problem(
            kind,
            n,
            draw(st.integers(min_value=1, max_value=6)),
            draw(st.integers(min_value=0, max_value=2**31)),
        )
        for kind in kinds
    ]
    n_init = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    transform = draw(st.sampled_from(_TRANSFORMS))
    metric = draw(st.sampled_from(_METRICS))
    return ys, Coplot(n_init=n_init, seed=seed, transform=transform, metric=metric)


def _assert_same_fit(batched, alone):
    assert batched.labels == alone.labels
    assert batched.signs == alone.signs
    np.testing.assert_allclose(batched.coords, alone.coords, rtol=0, atol=1e-9)
    assert batched.alienation == pytest.approx(alone.alienation, rel=0, abs=1e-12)
    np.testing.assert_allclose(batched.correlations, alone.correlations, rtol=0, atol=1e-12)
    # The kept restart: its own iteration count, convergence and stress.
    assert batched.mds.n_iter == alone.mds.n_iter
    assert batched.mds.converged == alone.mds.converged
    assert batched.mds.stress == pytest.approx(alone.mds.stress, rel=0, abs=1e-12)


class TestFitManyEqualsFit:
    @given(stack=stacks())
    @settings(max_examples=60, deadline=None)
    def test_each_result_is_the_lone_fit(self, stack):
        ys, cp = stack
        labels = [f"o{i}" for i in range(ys[0].shape[0])]
        signs = [[f"p{i}v{j}" for j in range(y.shape[1])] for i, y in enumerate(ys)]
        batched = cp.fit_many(ys, labels=labels, signs=signs)
        assert len(batched) == len(ys)
        for y, sgns, got in zip(ys, signs, batched):
            _assert_same_fit(got, cp.fit(y, labels=labels, signs=sgns))

    def test_mixed_stack_with_default_names(self):
        ys = [_problem(kind, 7, 3, seed) for seed, kind in enumerate(_KINDS)]
        cp = Coplot(n_init=3)
        for y, got in zip(ys, cp.fit_many(ys)):
            _assert_same_fit(got, cp.fit(y))

    def test_identical_problem_sits_at_the_origin(self):
        ys = [_problem("identical", 5, 2, 0), _problem("tie-free", 5, 2, 1)]
        degenerate, other = Coplot(n_init=2).fit_many(ys)
        assert np.all(degenerate.coords == 0)
        assert degenerate.alienation == 0.0 and degenerate.mds.n_iter == 0
        assert other.mds.n_iter > 0

    def test_shared_generator_seed_draws_like_a_loop(self):
        # A Generator seed is one stream: the batch draws each problem's
        # starts from it in problem order, exactly as successive fits do.
        ys = [_problem("tie-free", 6, 3, s) for s in range(3)]
        batched = Coplot(n_init=3, seed=np.random.default_rng(5)).fit_many(ys)
        serial_cp = Coplot(n_init=3, seed=np.random.default_rng(5))
        for y, got in zip(ys, batched):
            _assert_same_fit(got, serial_cp.fit(y))

    @pytest.mark.parametrize("metric", _METRICS)
    @pytest.mark.parametrize("transform", _TRANSFORMS)
    def test_batching_leaves_every_bit_alone(self, transform, metric):
        # Rows share no arithmetic, so even n_init=1 problems (a one-row
        # batch when fitted alone) come out bit-for-bit.
        ys = [_problem(kind, 10, p, p) for p, kind in enumerate(_KINDS * 2, start=1)]
        for n_init in (1, 4):
            cp = Coplot(n_init=n_init, transform=transform, metric=metric)
            for y, got in zip(ys, cp.fit_many(ys)):
                alone = cp.fit(y)
                np.testing.assert_array_equal(got.coords, alone.coords)
                assert got.alienation == alone.alienation
                assert got.mds.stress == alone.mds.stress
                assert got.mds.n_iter == alone.mds.n_iter

    def test_stacks_bigger_than_one_slice_are_the_lone_fits(self, monkeypatch):
        ys = [_problem(kind, 8, 3, seed) for seed, kind in enumerate(_KINDS * 2)]
        cp = Coplot(n_init=3)
        alone = [cp.fit(y) for y in ys]
        calls = []
        real = smacof_mod._run_batch

        def spy(sv, n, starts, *args):
            calls.append(sv.shape[0])
            return real(sv, n, starts, *args)

        monkeypatch.setattr(smacof_mod, "_run_batch", spy)
        # Five rows per slice: slices end mid-problem, and the rows of
        # the two identical problems are never run at all.
        monkeypatch.setattr(smacof_mod, "_BATCH_CELLS", 5 * 8 * 8)
        for got, lone in zip(cp.fit_many(ys), alone):
            np.testing.assert_array_equal(got.coords, lone.coords)
            assert got.alienation == lone.alienation
            assert got.mds.n_iter == lone.mds.n_iter
        assert calls == [5, 5, 5, 3]

    def test_empty_stack(self):
        assert Coplot().fit_many([]) == []


class TestFitManyValidation:
    @pytest.fixture
    def no_fit(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a problem was fitted before validation finished")

        monkeypatch.setattr(model_mod, "_solve_many", fail)

    def test_mismatched_n_rejected_before_any_fit(self, no_fit):
        ys = [_problem("tie-free", 6, 3, 0), _problem("tie-free", 7, 3, 1)]
        with pytest.raises(ValueError, match="share their observations"):
            Coplot().fit_many(ys)

    def test_mismatched_labels_rejected_before_any_fit(self, no_fit):
        ys = [_problem("tie-free", 6, 3, 0), _problem("tie-free", 5, 3, 1)]
        with pytest.raises(ValueError, match="labels for 5 observations"):
            Coplot().fit_many(ys, labels=[f"o{i}" for i in range(6)])

    def test_bad_signs_rejected_before_any_fit(self, no_fit):
        ys = [_problem("tie-free", 6, 3, 0), _problem("tie-free", 6, 2, 1)]
        with pytest.raises(ValueError, match="signs must be unique"):
            Coplot().fit_many(ys, signs=[["a", "b", "c"], ["d", "d"]])
        with pytest.raises(ValueError, match="sign lists for 2 problems"):
            Coplot().fit_many(ys, signs=[["a", "b", "c"]])


class TestPerRowTieRule:
    def test_only_the_tied_problem_is_lexsorted(self, monkeypatch):
        seen = []
        real = smacof_mod._batched_orders

        def spy(sv_rows, dv, keys):
            seen.append(np.array(sv_rows))
            return real(sv_rows, dv, keys)

        monkeypatch.setattr(smacof_mod, "_batched_orders", spy)
        ys = [
            _problem("tie-free", 8, 3, 0),
            _problem("tied", 8, 1, 1),
            _problem("tie-free", 8, 4, 2),
        ]
        results = Coplot(n_init=3).fit_many(ys)
        tied = upper_triangle(results[1].dissimilarity)
        assert len(np.unique(tied)) < tied.size
        for result in (results[0], results[2]):
            sv = upper_triangle(result.dissimilarity)
            assert len(np.unique(sv)) == sv.size
        assert seen, "the tied problem was never lexsorted"
        for rows in seen:
            assert 1 <= rows.shape[0] <= 3
            assert all(np.array_equal(row, tied) for row in rows)
