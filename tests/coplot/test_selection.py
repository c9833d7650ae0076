"""Tests for variable elimination and the best-subset search."""

import numpy as np
import pytest

from repro.coplot import Coplot, SubsetScore, best_subset, eliminate_variables


@pytest.fixture
def data_with_noise(rng):
    base = rng.normal(size=(10, 2))
    y = np.column_stack(
        [
            base[:, 0],
            base[:, 0] * 1.5 + 0.05 * rng.normal(size=10),
            base[:, 1],
            -base[:, 1] + 0.05 * rng.normal(size=10),
            rng.normal(size=10),  # pure noise: should be eliminated
        ]
    )
    return y


FAST = Coplot(n_init=2, max_iter=200)


class TestEliminateVariables:
    def test_noise_removed(self, data_with_noise):
        result, removed, _ = eliminate_variables(
            data_with_noise,
            signs=["A", "B", "C", "D", "N"],
            min_correlation=0.85,
            coplot=FAST,
        )
        assert "N" in removed
        assert "N" not in result.signs

    def test_fit_improves(self, data_with_noise):
        result, _, first = eliminate_variables(
            data_with_noise, min_correlation=0.85, coplot=FAST
        )
        assert result.average_correlation >= first.average_correlation

    def test_first_round_is_the_fit_of_every_variable(self, data_with_noise):
        signs = ["A", "B", "C", "D", "N"]
        result, removed, first = eliminate_variables(
            data_with_noise, signs=signs, min_correlation=0.85, coplot=FAST
        )
        assert removed and first is not result
        full = FAST.fit(data_with_noise, signs=signs)
        assert first.signs == full.signs
        np.testing.assert_array_equal(first.coords, full.coords)
        np.testing.assert_array_equal(first.correlations, full.correlations)
        assert first.alienation == full.alienation

    def test_nothing_removed_when_all_fit(self, rng):
        base = rng.normal(size=(8, 2))
        y = np.column_stack([base[:, 0], base[:, 1]])
        result, removed, first = eliminate_variables(y, min_correlation=0.5, coplot=FAST)
        assert removed == []
        assert len(result.signs) == 2
        assert first is result

    def test_min_variables_floor(self, rng):
        y = rng.normal(size=(8, 4))
        result, removed, _ = eliminate_variables(
            y, min_correlation=0.999, min_variables=3, coplot=FAST
        )
        assert len(result.signs) >= 3

    def test_validation(self, data_with_noise):
        with pytest.raises(ValueError, match="min_variables"):
            eliminate_variables(data_with_noise, min_variables=1)
        with pytest.raises(ValueError, match="drop_per_round"):
            eliminate_variables(data_with_noise, drop_per_round=0)

    def test_removal_order_worst_first(self, data_with_noise):
        # Four strongly planted variables plus one noise column: the FIRST
        # drop must be the noise variable (later rounds may legitimately
        # reorganize the map).
        _, removed, _ = eliminate_variables(
            data_with_noise,
            signs=["A", "B", "C", "D", "N"],
            min_correlation=0.95,
            coplot=FAST,
        )
        assert removed and removed[0] == "N"


class TestBestSubset:
    def test_returns_sorted_scores(self, data_with_noise):
        scores = best_subset(
            data_with_noise, 2, signs=["A", "B", "C", "D", "N"], coplot=FAST, top=5
        )
        assert len(scores) == 5
        corr = [s.average_correlation for s in scores]
        assert corr == sorted(corr, reverse=True)

    def test_noise_not_in_winner(self, data_with_noise):
        scores = best_subset(
            data_with_noise, 2, signs=["A", "B", "C", "D", "N"], coplot=FAST, top=1
        )
        assert "N" not in scores[0].signs

    def test_candidates_restriction(self, data_with_noise):
        scores = best_subset(
            data_with_noise,
            2,
            signs=["A", "B", "C", "D", "N"],
            candidates=["A", "C", "N"],
            coplot=FAST,
            top=3,
        )
        for s in scores:
            assert set(s.signs) <= {"A", "C", "N"}

    def test_unknown_candidate_rejected(self, data_with_noise):
        with pytest.raises(ValueError, match="unknown candidate"):
            best_subset(
                data_with_noise, 2, signs=["A", "B", "C", "D", "N"], candidates=["ZZ"]
            )

    def test_duplicate_candidates_rejected_before_any_fit(self, data_with_noise, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("subsets were fitted before the candidates were checked")

        monkeypatch.setattr(Coplot, "fit_many", fail)
        monkeypatch.setattr(Coplot, "fit", fail)
        with pytest.raises(ValueError, match=r"duplicate candidate signs: \['a'\]"):
            best_subset(
                data_with_noise[:, :4], 2, signs=list("abcd"), candidates=["a", "a", "b"]
            )

    def test_subsets_match_lone_fits(self, data_with_noise):
        signs = ["A", "B", "C", "D", "N"]
        scores = best_subset(data_with_noise, 2, signs=signs, coplot=FAST, top=10)
        assert len(scores) == 10
        for score in scores:
            cols = [signs.index(s) for s in score.signs]
            alone = FAST.fit(data_with_noise[:, cols], signs=list(score.signs))
            np.testing.assert_array_equal(score.result.coords, alone.coords)
            assert score.alienation == alone.alienation
            assert score.average_correlation == alone.average_correlation

    def test_k_validation(self, data_with_noise):
        with pytest.raises(ValueError, match="k must be"):
            best_subset(data_with_noise, 0)
        with pytest.raises(ValueError, match="k must be"):
            best_subset(data_with_noise, 6)

    def test_too_few_candidates(self, data_with_noise):
        with pytest.raises(ValueError, match="candidate variables"):
            best_subset(
                data_with_noise,
                3,
                signs=["A", "B", "C", "D", "N"],
                candidates=["A", "B"],
            )

    def test_dominates(self, data_with_noise):
        scores = best_subset(
            data_with_noise, 2, signs=["A", "B", "C", "D", "N"], coplot=FAST, top=5
        )
        a = scores[0]
        worse = SubsetScore(
            signs=("x",),
            alienation=a.alienation + 0.5,
            average_correlation=a.average_correlation - 0.5,
            min_correlation=0.0,
            result=a.result,
        )
        assert a.dominates(worse)
        assert not worse.dominates(a)
