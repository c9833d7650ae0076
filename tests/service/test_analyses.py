"""The coplot and compare analyses, computed in this process as a worker runs them."""

import json

import numpy as np
import pytest

from repro.archive.synthesize import MIN_N_JOBS
from repro.archive.targets import PRODUCTION_NAMES
from repro.service.analyses import _json_safe, compute_analysis, parse_analysis_request


def _compute(doc, root):
    payload, hit, _ = compute_analysis(
        parse_analysis_request(doc),
        cache_dir=str(root / "cache"),
        fingerprint="test",
        uploads_dir=str(root / "uploads"),
    )
    assert hit is False
    return payload


class TestCoplot:
    @pytest.fixture(scope="class")
    def payload(self, tmp_path_factory):
        doc = {
            "kind": "coplot",
            "input": {"workload": "CTC", "n_jobs": MIN_N_JOBS},
            "params": {"n_init": 2},
        }
        return _compute(doc, tmp_path_factory.mktemp("coplot"))

    def test_workload_joins_the_production_logs_under_a_distinct_label(self, payload):
        assert payload["workload"] == {"name": "CTC", "jobs": MIN_N_JOBS}
        assert payload["map"]["labels"] == [*PRODUCTION_NAMES, "CTC*"]
        assert set(payload["distances"]) == set(PRODUCTION_NAMES)
        assert payload["nearest"] == next(iter(payload["distances"]))

    def test_map_has_one_point_per_label_and_one_arrow_per_sign(self, payload):
        graph = payload["map"]
        assert np.shape(graph["coords"]) == (len(graph["labels"]), 2)
        assert [a["sign"] for a in graph["arrows"]] == graph["signs"]

    def test_artifacts_name_the_workload(self, payload):
        assert "CTC*" in payload["artifacts"]["csv"]
        assert "<svg" in payload["artifacts"]["svg"]

    def test_payload_is_strict_json(self, payload):
        json.dumps(payload, allow_nan=False)


class TestCompare:
    @pytest.fixture(scope="class")
    def payload(self, tmp_path_factory):
        doc = {
            "kind": "compare",
            "input": {"model": "Lublin", "n_jobs": 300},
            "params": {"models": ["Lublin", "Downey"], "n_jobs": 300, "n_init": 2},
        }
        return _compute(doc, tmp_path_factory.mktemp("compare"))

    def test_model_compared_against_itself_is_renamed(self, payload):
        assert payload["models"] == ["Lublin", "Downey"]
        assert payload["map"]["labels"] == ["Lublin*", "Lublin", "Downey"]

    def test_same_model_and_seed_is_the_nearest(self, payload):
        # The input and the first model are the same 300-job stream.
        assert payload["nearest_model"] == "Lublin"
        assert list(payload["distances"]) == ["Lublin", "Downey"]

    def test_payload_is_strict_json(self, payload):
        json.dumps(payload, allow_nan=False)


def test_json_safe_scrubs_non_finite_and_numpy_values():
    raw = {
        "nan": float("nan"),
        "f32": np.float32(1.5),
        "i64": np.int64(3),
        "arr": np.array([1.0, np.inf]),
        "tuple": (np.nan, 2),
        1: "key",
    }
    assert _json_safe(raw) == {
        "nan": None,
        "f32": 1.5,
        "i64": 3,
        "arr": [1.0, None],
        "tuple": [None, 2],
        "1": "key",
    }
