"""Tests for Co-plot bootstrap stability."""

import numpy as np
import pytest

from repro.coplot import Coplot, bootstrap_stability

from oracles.bootstrap import bootstrap_stability_reference


@pytest.fixture(scope="module")
def structured():
    rng = np.random.default_rng(7)
    base = rng.normal(size=(10, 2))
    return np.column_stack(
        [
            base[:, 0],
            2.0 * base[:, 0] + 0.1 * rng.normal(size=10),
            base[:, 1],
            base[:, 0] + base[:, 1],
        ]
    )


class TestBootstrapStability:
    def test_structured_data_is_stable(self, structured):
        report = bootstrap_stability(structured, n_boot=8, seed=0)
        assert report.mean_disparity < 0.35
        assert report.positional_spread.shape == (10,)
        assert np.all(report.positional_spread >= 0)

    def test_labels_carried(self, structured):
        report = bootstrap_stability(
            structured, labels=[f"w{i}" for i in range(10)], n_boot=4, seed=0
        )
        assert report.labels == [f"w{i}" for i in range(10)]
        assert set(report.least_stable(2)) <= set(report.labels)

    def test_n_boot_validation(self, structured):
        with pytest.raises(ValueError, match="n_boot"):
            bootstrap_stability(structured, n_boot=1)

    def test_noise_less_stable_than_structure(self):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(9, 2))
        structured = np.column_stack(
            [base[:, 0], base[:, 0] * 1.5, base[:, 1], -base[:, 1]]
        )
        noise = rng.normal(size=(9, 4))
        fast = Coplot(n_init=2)
        rep_s = bootstrap_stability(structured, n_boot=6, coplot=fast, seed=1)
        rep_n = bootstrap_stability(noise, n_boot=6, coplot=fast, seed=1)
        assert rep_s.mean_disparity < rep_n.mean_disparity

    def test_figure2_reference_use_case(self):
        """The paper's own data: the Figure 2 map is bootstrap-stable."""
        from repro.experiments.common import FIGURE2_SIGNS, production_matrix
        from repro.experiments.figure2 import FIGURE2_NAMES

        y, labels = production_matrix(FIGURE2_SIGNS, FIGURE2_NAMES)
        report = bootstrap_stability(
            y, labels=labels, signs=list(FIGURE2_SIGNS), n_boot=8, seed=0
        )
        assert report.mean_disparity < 0.4


class TestBootstrapEngines:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_engines_agree(self, seed):
        rng = np.random.default_rng(7)
        y = rng.normal(size=(12, 16)) + np.linspace(0, 3, 16)
        ref = bootstrap_stability_reference(y, n_boot=6, seed=seed)
        fast = bootstrap_stability(y, n_boot=6, seed=seed)
        assert ref.labels == fast.labels
        np.testing.assert_allclose(
            ref.positional_spread, fast.positional_spread, atol=1e-10
        )
        assert ref.mean_disparity == pytest.approx(fast.mean_disparity, abs=1e-10)
        np.testing.assert_array_equal(ref.reference, fast.reference)

    def test_engines_agree_with_missing_cells(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=(10, 12)) + np.linspace(0, 2, 12)
        y[2, 4] = np.nan
        y[7, 9] = np.nan
        ref = bootstrap_stability_reference(y, n_boot=4, seed=1)
        fast = bootstrap_stability(y, n_boot=4, seed=1)
        np.testing.assert_allclose(
            ref.positional_spread, fast.positional_spread, atol=1e-10
        )

    def test_engines_agree_under_custom_coplot(self):
        rng = np.random.default_rng(9)
        y = rng.normal(size=(9, 10))
        cp = Coplot(n_init=3, transform="isotonic", seed=4, ddof=1)
        ref = bootstrap_stability_reference(y, n_boot=4, coplot=cp, seed=2)
        fast = bootstrap_stability(y, n_boot=4, coplot=cp, seed=2)
        np.testing.assert_allclose(
            ref.positional_spread, fast.positional_spread, atol=1e-10
        )
