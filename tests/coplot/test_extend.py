"""Tests for Co-plot projection and bootstrap stability."""

import numpy as np
import pytest

from repro.coplot import Coplot, bootstrap_stability, project_observation

from oracles.bootstrap import bootstrap_stability_reference


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(7)
    base = rng.normal(size=(10, 2))
    y = np.column_stack(
        [
            base[:, 0],
            2.0 * base[:, 0] + 0.1 * rng.normal(size=10),
            base[:, 1],
            base[:, 0] + base[:, 1],
        ]
    )
    return y, Coplot().fit(y, labels=[f"w{i}" for i in range(10)], signs=list("ABCD"))


class TestProjectObservation:
    def test_existing_row_projects_onto_itself(self, fitted):
        y, result = fitted
        pos, stress = project_observation(result, y[3])
        assert np.linalg.norm(pos - result.coords[3]) < 0.35
        assert stress < 0.35

    def test_duplicate_of_extreme_row(self, fitted):
        y, result = fitted
        extreme = int(np.argmax(np.abs(y[:, 0])))
        pos, _ = project_observation(result, y[extreme])
        dists = np.linalg.norm(result.coords - pos, axis=1)
        assert int(np.argmin(dists)) == extreme

    def test_average_row_lands_centrally(self, fitted):
        y, result = fitted
        pos, _ = project_observation(result, np.nanmean(y, axis=0))
        centroid = result.coords.mean(axis=0)
        spread = np.mean(np.linalg.norm(result.coords - centroid, axis=1))
        assert np.linalg.norm(pos - centroid) < spread

    def test_nan_values_allowed(self, fitted):
        y, result = fitted
        row = y[2].copy()
        row[1] = np.nan
        pos, stress = project_observation(result, row)
        assert np.isfinite(pos).all()

    def test_wrong_length_rejected(self, fitted):
        _, result = fitted
        with pytest.raises(ValueError, match="expected 4 values"):
            project_observation(result, np.zeros(3))

    def test_deterministic(self, fitted):
        y, result = fitted
        a, _ = project_observation(result, y[5], seed=3)
        b, _ = project_observation(result, y[5], seed=3)
        assert np.array_equal(a, b)


class TestBootstrapStability:
    def test_structured_data_is_stable(self, fitted):
        y, _ = fitted
        report = bootstrap_stability(y, n_boot=8, seed=0)
        assert report.mean_disparity < 0.35
        assert report.positional_spread.shape == (10,)
        assert np.all(report.positional_spread >= 0)

    def test_labels_carried(self, fitted):
        y, _ = fitted
        report = bootstrap_stability(
            y, labels=[f"w{i}" for i in range(10)], n_boot=4, seed=0
        )
        assert report.labels == [f"w{i}" for i in range(10)]
        assert set(report.least_stable(2)) <= set(report.labels)

    def test_n_boot_validation(self, fitted):
        y, _ = fitted
        with pytest.raises(ValueError, match="n_boot"):
            bootstrap_stability(y, n_boot=1)

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


class TestProjectionDissimVectorized:
    def test_matches_scalar_city_block_dense(self, fitted):
        from repro.coplot.dissimilarity import city_block
        from repro.coplot.extend import _column_norms, _dissim_to_rows

        y, result = fitted
        rng = np.random.default_rng(5)
        new = rng.normal(size=y.shape[1])
        means, stds = _column_norms(result.y)
        z_new = (new - means) / stds
        old = np.array([city_block(z_new, row) for row in result.z])
        np.testing.assert_array_equal(_dissim_to_rows(z_new, result.z), old)

    def test_matches_scalar_city_block_with_nans(self):
        from repro.coplot.dissimilarity import city_block
        from repro.coplot.extend import _dissim_to_rows

        rng = np.random.default_rng(6)
        z = rng.normal(size=(8, 10))
        z[1, 3] = np.nan
        z[5, 8] = np.nan
        z_new = rng.normal(size=10)
        z_new[2] = np.nan
        old = np.array([city_block(z_new, row) for row in z])
        np.testing.assert_allclose(
            _dissim_to_rows(z_new, z), old, rtol=1e-12, atol=0
        )

    def test_no_shared_variables_raises(self):
        from repro.coplot.extend import _dissim_to_rows

        z = np.full((4, 3), np.nan)
        z[0] = [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="share no present variables"):
            _dissim_to_rows(np.array([1.0, np.nan, 2.0]), np.array([[np.nan] * 3]))
