"""Spec parsing and canonicalisation — the service's cache identity."""

import pytest

from repro.archive.synthesize import MIN_N_JOBS
from repro.runtime.cache import ResultCache
from repro.service.analyses import (
    ANALYSIS_KINDS,
    parse_analysis_request,
    spec_cache_key,
)
from repro.service.errors import ServiceError

DIGEST = "ab" * 32


def invalid(doc, **kwargs):
    with pytest.raises(ServiceError) as err:
        parse_analysis_request(doc, **kwargs)
    assert err.value.code == "invalid_spec"
    return err.value


class TestParsing:
    def test_default_kind_is_coplot(self):
        spec = parse_analysis_request({}, upload_digest=DIGEST)
        assert spec.kind == "coplot"
        assert spec.input == {"upload": DIGEST}

    def test_all_kinds_accepted(self):
        for kind in ANALYSIS_KINDS:
            if kind == "experiment":
                doc = {"kind": kind, "input": {"experiment": "figure2"}}
            else:
                doc = {"kind": kind, "input": {"workload": "CTC"}}
            assert parse_analysis_request(doc).kind == kind

    def test_unknown_kind_rejected(self):
        invalid({"kind": "regress", "input": {"workload": "CTC"}})

    def test_unknown_workload_rejected(self):
        invalid({"input": {"workload": "NotALog"}})

    def test_unknown_model_rejected(self):
        invalid({"input": {"model": "NotAModel"}})

    def test_unknown_experiment_rejected(self):
        invalid({"kind": "experiment", "input": {"experiment": "figure99"}})

    def test_input_must_name_exactly_one_source(self):
        invalid({"input": {}})
        invalid({"input": {"workload": "CTC", "model": "Lublin"}})

    def test_upload_body_excludes_named_input(self):
        invalid({"input": {"workload": "CTC"}}, upload_digest=DIGEST)

    def test_experiment_kind_needs_experiment_input(self):
        invalid({"kind": "experiment", "input": {"workload": "CTC"}})
        invalid({"kind": "coplot", "input": {"experiment": "figure2"}})

    def test_bad_digest_rejected(self):
        invalid({"input": {"upload": "short"}})

    def test_unknown_sign_rejected(self):
        invalid(
            {"input": {"workload": "CTC"}, "params": {"signs": ["nonesuch"]}}
        )

    def test_negative_seed_rejected(self):
        invalid({"input": {"workload": "CTC", "seed": -1}})

    def test_bool_is_not_an_int(self):
        invalid({"input": {"workload": "CTC", "n_jobs": True}})

    def test_named_workload_needs_the_synthesizer_minimum(self):
        """Fewer jobs than the synthesizer accepts is a spec error at
        submit, not a worker failure; model streams may be 1 job long."""
        invalid({"input": {"workload": "CTC", "n_jobs": 99}})
        invalid({"input": {"workload": "L1", "n_jobs": 50}})
        spec = parse_analysis_request({"input": {"workload": "CTC", "n_jobs": 100}})
        assert spec.input["n_jobs"] == MIN_N_JOBS == 100
        spec = parse_analysis_request({"input": {"model": "Lublin", "n_jobs": 1}})
        assert spec.input["n_jobs"] == 1

    def test_compare_needs_two_models(self):
        invalid(
            {"kind": "compare", "input": {"workload": "CTC"},
             "params": {"models": ["Lublin"]}}
        )

    def test_hurst_unknown_method_rejected(self):
        invalid(
            {"kind": "hurst", "input": {"workload": "CTC"},
             "params": {"methods": ["tea-leaves"]}}
        )

    def test_non_object_body_rejected(self):
        invalid(["not", "an", "object"])
        invalid(None)


class TestCanonicalisation:
    def test_params_are_total(self):
        """Every default is materialised, so omission == explicit default."""
        bare = parse_analysis_request({"input": {"workload": "CTC"}})
        explicit = parse_analysis_request(
            {
                "kind": "coplot",
                "input": {"workload": "CTC", "n_jobs": 2000, "seed": 0},
                "params": {"seed": 0, "n_init": 8, "label": "upload"},
            }
        )
        assert bare.canonical() == explicit.canonical()

    def test_equivalent_requests_share_a_cache_key(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        a = parse_analysis_request({"input": {"workload": "CTC"}})
        b = parse_analysis_request(
            {"kind": "coplot", "input": {"workload": "CTC", "seed": 0}}
        )
        assert spec_cache_key(a, cache) == spec_cache_key(b, cache)

    def test_different_inputs_differ(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        a = parse_analysis_request({"input": {"workload": "CTC"}})
        b = parse_analysis_request({"input": {"workload": "KTH"}})
        assert spec_cache_key(a, cache) != spec_cache_key(b, cache)

    def test_experiment_key_matches_cli_runner(self, tmp_path):
        """A service 'experiment' request lands on the CLI's cache entry."""
        from repro.experiments.registry import REGISTRY, build_kwargs

        cache = ResultCache(str(tmp_path), fingerprint="f1")
        spec = parse_analysis_request(
            {"kind": "experiment", "input": {"experiment": "figure2", "quick": True}}
        )
        expected = cache.key(
            "figure2", build_kwargs(REGISTRY["figure2"], seed=0, quick=True)
        )
        assert spec_cache_key(spec, cache) == expected
