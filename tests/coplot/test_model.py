"""Tests for the Coplot pipeline and CoplotResult."""

import numpy as np
import pytest

from repro.coplot import Coplot


@pytest.fixture
def structured_data(rng):
    """10 observations whose variables have planted structure: A~B, C~-D,
    E independent noise."""
    base = rng.normal(size=(10, 2))
    y = np.column_stack(
        [
            base[:, 0] + 0.05 * rng.normal(size=10),
            2 * base[:, 0] + 0.1 * rng.normal(size=10),
            base[:, 1] + 0.05 * rng.normal(size=10),
            -base[:, 1] + 0.05 * rng.normal(size=10),
            rng.normal(size=10),
        ]
    )
    return y


@pytest.fixture
def fitted(structured_data):
    return Coplot().fit(
        structured_data,
        labels=[f"w{i}" for i in range(10)],
        signs=["A", "B", "C", "D", "E"],
    )


class TestFitValidation:
    def test_too_few_observations(self):
        with pytest.raises(ValueError, match="at least 3"):
            Coplot().fit(np.zeros((2, 3)))

    def test_label_mismatch(self, structured_data):
        with pytest.raises(ValueError, match="labels"):
            Coplot().fit(structured_data, labels=["a"])

    def test_sign_mismatch(self, structured_data):
        with pytest.raises(ValueError, match="signs"):
            Coplot().fit(structured_data, signs=["a"])

    def test_duplicate_labels_rejected(self, structured_data):
        with pytest.raises(ValueError, match="unique"):
            Coplot().fit(structured_data, labels=["x"] * 10)

    def test_duplicate_signs_rejected(self, structured_data):
        with pytest.raises(ValueError, match="unique"):
            Coplot().fit(structured_data, signs=["s"] * 5)

    def test_default_names(self, structured_data):
        res = Coplot().fit(structured_data)
        assert res.labels[0] == "obs0"
        assert res.signs[0] == "v0"


class TestResultBasics:
    def test_shapes(self, fitted):
        assert fitted.coords.shape == (10, 2)
        assert len(fitted.arrows) == 5
        assert fitted.dissimilarity.shape == (10, 10)

    def test_deterministic(self, structured_data):
        a = Coplot(seed=3).fit(structured_data)
        b = Coplot(seed=3).fit(structured_data)
        assert np.array_equal(a.coords, b.coords)

    def test_correlations_in_range(self, fitted):
        assert np.all(fitted.correlations >= 0.0)
        assert np.all(fitted.correlations <= 1.0)

    def test_average_and_min(self, fitted):
        assert fitted.min_correlation <= fitted.average_correlation

    def test_planted_structure_found(self, fitted):
        # Correlated pair A, B: nearly parallel arrows.
        from repro.coplot.arrows import angle_between

        assert angle_between(fitted.arrow("A"), fitted.arrow("B")) < 20.0
        # Anti-correlated pair C, D: nearly opposite.
        assert angle_between(fitted.arrow("C"), fitted.arrow("D")) > 160.0
        # Noise variable fits worst.
        assert fitted.arrow("E").correlation == fitted.min_correlation

    def test_summary_text(self, fitted):
        assert "10 observations x 5 variables" in fitted.summary()


class TestResultLookups:
    def test_index_of(self, fitted):
        assert fitted.index_of("w3") == 3
        with pytest.raises(KeyError):
            fitted.index_of("nope")

    def test_arrow_lookup(self, fitted):
        assert fitted.arrow("A").sign == "A"
        with pytest.raises(KeyError):
            fitted.arrow("Z")

    def test_position_and_distance(self, fitted):
        d = fitted.distance("w0", "w1")
        assert d == pytest.approx(
            float(np.linalg.norm(fitted.position("w0") - fitted.position("w1")))
        )
        assert fitted.distance("w0", "w0") == 0.0

    def test_distances_from_sorted(self, fitted):
        dists = fitted.distances_from("w0")
        assert "w0" not in dists
        values = list(dists.values())
        assert values == sorted(values)

    def test_centroid(self, fitted):
        assert np.allclose(fitted.centroid(), fitted.coords.mean(axis=0))


class TestInterpretation:
    def test_variable_clusters_cover_all(self, fitted):
        clusters = fitted.variable_clusters()
        flat = [s for c in clusters for s in c]
        assert sorted(flat) == ["A", "B", "C", "D", "E"]

    def test_cluster_pairing(self, fitted):
        clusters = fitted.variable_clusters(max_angle=25.0)
        ab = next(c for c in clusters if "A" in c)
        assert "B" in ab
        cd = next(c for c in clusters if "C" in c)
        assert "D" not in cd  # anti-correlated, never same cluster

    def test_characterization_sign_consistency(self, fitted):
        """The observation with the largest A value projects positively on
        the A arrow."""
        top = int(np.argmax(fitted.y[:, 0]))
        label = fitted.labels[top]
        assert fitted.characterization(label)["A"] > 0

    def test_outliers_factor(self, fitted):
        # Large factor: nothing qualifies.
        assert fitted.outliers(factor=100.0) == []

    def test_outlier_detected_for_extreme_observation(self, rng):
        y = rng.normal(size=(8, 3))
        y[0] += 25.0
        res = Coplot().fit(y)
        assert "obs0" in res.outliers(factor=1.5)


class TestConfigurations:
    def test_euclidean_metric_runs(self, structured_data):
        res = Coplot(metric="euclidean").fit(structured_data)
        assert res.alienation < 0.3

    def test_isotonic_transform_runs(self, structured_data):
        res = Coplot(transform="isotonic").fit(structured_data)
        assert res.alienation < 0.3

    def test_three_dimensional_map(self, structured_data):
        res = Coplot(dim=3).fit(structured_data)
        assert res.coords.shape == (10, 3)
        assert res.arrows[0].direction.shape == (3,)
