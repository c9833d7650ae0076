"""End-to-end tests of the experiments CLI on the runtime engine.

Covers the acceptance contract of the runtime subsystem: cached runs
are byte-identical to fresh ones, parallel runs match serial runs,
traces are valid JSONL with one span per task, and failures/claim
misses surface as nonzero exit codes.
"""

import json
import os

import pytest

from repro.experiments.common import Claim
from repro.experiments.registry import REGISTRY, ExperimentSpec, validate_registry
from repro.experiments.runner import EXIT_CLAIM_MISS, EXIT_OK, EXIT_TASK_FAILURE, main

#: A deliberately cheap experiment pair for end-to-end runs.
_FAST = ["figure2", "table2"]


def _run(tmp_path, tag, extra):
    out_dir = str(tmp_path / f"out-{tag}")
    argv = [*_FAST, "--quick", "--out", out_dir, "--cache-dir", str(tmp_path / f"cache-{tag}"), *extra]
    assert main(argv) == EXIT_OK
    return out_dir


# Observability sidecars carry real wall times and fresh trace ids;
# determinism is a claim about the *experiment* artifacts.
_SIDECARS = {"journal.jsonl", "trace.jsonl", "metrics.json", "profiles"}


def _read_artifacts(out_dir):
    latest = os.path.join(out_dir, "latest")
    return {
        name: open(os.path.join(latest, name), "rb").read()
        for name in sorted(os.listdir(latest))
        if name not in _SIDECARS
    }


class TestDeterminism:
    def test_cached_run_byte_identical_to_fresh(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        out1 = str(tmp_path / "o1")
        out2 = str(tmp_path / "o2")
        assert main([*_FAST, "--quick", "--out", out1, "--cache-dir", cache]) == EXIT_OK
        capsys.readouterr()
        assert main([*_FAST, "--quick", "--out", out2, "--cache-dir", cache]) == EXIT_OK
        assert "cached" in capsys.readouterr().out
        assert _read_artifacts(out1) == _read_artifacts(out2)

    def test_parallel_run_matches_serial(self, tmp_path, capsys):
        serial = _run(tmp_path, "serial", ["--jobs", "1"])
        parallel = _run(tmp_path, "parallel", ["--jobs", "4"])
        assert _read_artifacts(serial) == _read_artifacts(parallel)

    def test_seed_changes_cache_key(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["table2", "--quick", "--cache-dir", cache]) == EXIT_OK
        capsys.readouterr()
        assert main(["table2", "--quick", "--seed", "7", "--cache-dir", cache]) == EXIT_OK
        assert "cached" not in capsys.readouterr().out


class TestTrace:
    def test_trace_emits_one_span_per_task(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        cache = str(tmp_path / "cache")
        assert main([*_FAST, "--quick", "--trace", str(trace), "--cache-dir", cache]) == EXIT_OK
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records[0]["type"] == "header"
        spans = [r for r in records if r["type"] == "span"]
        assert sorted(s["task"] for s in spans) == sorted(_FAST)
        for span in spans:
            assert span["status"] == "ok"
            assert span["cache_hit"] is False
            assert span["retries"] == 0
            assert span["wall_s"] > 0

    def test_trace_marks_cache_hits(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["figure2", "--cache-dir", cache]) == EXIT_OK
        trace = tmp_path / "trace.jsonl"
        assert main(["figure2", "--cache-dir", cache, "--trace", str(trace)]) == EXIT_OK
        spans = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if json.loads(line)["type"] == "span"
        ]
        assert spans[0]["cache_hit"] is True
        metrics = {
            r["name"]: r["value"]
            for r in map(json.loads, trace.read_text().splitlines())
            if r["type"] == "metric"
        }
        assert metrics["cache_hits"] == 1
        assert metrics["cache_misses"] == 0


class TestTraceFile:
    def test_rerun_replaces_the_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        cache = str(tmp_path / "cache")
        for _ in range(2):
            assert main(["figure2", "--quick", "--trace", str(trace), "--cache-dir", cache]) == EXIT_OK
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert [r["type"] for r in records] == ["header", "span"] + ["metric"] * 4
        assert records[1]["name"] == "task:figure2"
        assert records[1]["cache_hit"] is True
        assert "span_id" not in records[1]  # summary spans stay id-less
        assert "trace: 1 task(s): 1 ok; cache 1 hit / 0 miss" in capsys.readouterr().out


def _boom_experiment(**kwargs):
    raise RuntimeError("synthetic experiment failure")


class _MissResult:
    def render(self):
        return "=== synthetic: always misses ==="

    @property
    def claims(self):
        return [Claim("synthetic claim", "42", "41", False)]


def _missing_experiment(**kwargs):
    return _MissResult()


@pytest.fixture
def synthetic(monkeypatch):
    """Inject one always-failing and one claim-missing experiment."""
    monkeypatch.setitem(
        REGISTRY,
        "boomx",
        ExperimentSpec(id="boomx", run=_boom_experiment, seeded=False, quick_kwargs={}),
    )
    monkeypatch.setitem(
        REGISTRY,
        "missx",
        ExperimentSpec(id="missx", run=_missing_experiment, seeded=False, quick_kwargs={}),
    )


class TestExitCodes:
    def test_experiment_exception_is_nonzero_and_batch_completes(
        self, synthetic, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        code = main(["boomx", "figure2", "--cache-dir", cache])
        out = capsys.readouterr().out
        assert code == EXIT_TASK_FAILURE
        assert "synthetic experiment failure" in out
        assert "Figure 2" in out, "failure aborted the rest of the batch"

    def test_claim_miss_exits_nonzero_by_default(self, synthetic, tmp_path, capsys):
        assert main(["missx", "--cache-dir", str(tmp_path / "c")]) == EXIT_CLAIM_MISS

    def test_no_fail_on_miss_downgrades_to_zero(self, synthetic, tmp_path, capsys):
        code = main(["missx", "--cache-dir", str(tmp_path / "c"), "--no-fail-on-miss"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "did not hold" in out

    def test_failure_beats_claim_miss(self, synthetic, tmp_path, capsys):
        code = main(["boomx", "missx", "--cache-dir", str(tmp_path / "c")])
        assert code == EXIT_TASK_FAILURE

    def test_failed_experiment_span_recorded(self, synthetic, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        cache = str(tmp_path / "cache")
        assert main(["boomx", "--cache-dir", cache, "--trace", str(trace)]) == EXIT_TASK_FAILURE
        spans = [
            r
            for r in map(json.loads, trace.read_text().splitlines())
            if r["type"] == "span"
        ]
        assert spans[0]["task"] == "boomx"
        assert spans[0]["status"] == "failed"
        assert spans[0]["cache_hit"] is False

    def test_failures_are_not_cached(self, synthetic, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["boomx", "--cache-dir", cache]) == EXIT_TASK_FAILURE
        capsys.readouterr()
        assert main(["boomx", "--cache-dir", cache]) == EXIT_TASK_FAILURE
        assert "cached" not in capsys.readouterr().out


class TestRegistry:
    def test_registry_covers_back_compat_mapping(self):
        from repro.experiments import EXPERIMENTS

        assert set(EXPERIMENTS) == set(REGISTRY)
        for exp_id, fn in EXPERIMENTS.items():
            assert REGISTRY[exp_id].run is fn

    def test_registry_validates(self):
        validate_registry()

    def test_validate_rejects_unknown_quick_kwarg(self):
        def seeded_stub(*, seed=0):
            return None

        bad = {
            "bad": ExperimentSpec(
                id="bad", run=seeded_stub, seeded=True, quick_kwargs={"nope": 1}
            )
        }
        with pytest.raises(ValueError):
            validate_registry(bad)

    def test_validate_rejects_seeded_without_seed(self):
        bad = {
            "bad": ExperimentSpec(
                id="bad", run=lambda: None, seeded=True, quick_kwargs={}
            )
        }
        with pytest.raises(ValueError):
            validate_registry(bad)

    def test_every_spec_declares_quick_story(self):
        # Heavy experiments must shrink in quick mode; the exempt list is
        # the cheap ones whose full run is already fast.
        exempt = {"figure1", "figure2", "figure3", "param"}
        for exp_id, spec in REGISTRY.items():
            if exp_id not in exempt:
                assert spec.quick_kwargs, f"{exp_id} has no quick-mode overrides"


def _producer(*, seed=0, n_jobs=10):
    return None


def _consumer(*, seed=0, n_jobs=10, prod=None):
    return None


def _consumer_seeded_differently(*, seed=1, n_jobs=10, prod=None):
    return None


def _input_pair(**consumer_fields):
    fields = {"run": _consumer, "seeded": True, "quick_kwargs": {"n_jobs": 5}, "inputs": ("prod",)}
    fields.update(consumer_fields)
    return {
        "prod": ExperimentSpec(
            id="prod", run=_producer, seeded=True, quick_kwargs={"n_jobs": 5}, load=dict
        ),
        "cons": ExperimentSpec(id="cons", **fields),
    }


class TestRegistryInputs:
    def test_figure5_reads_table3(self):
        assert REGISTRY["figure5"].inputs == ("table3",)
        assert REGISTRY["table3"].load is not None

    def test_matching_input_validates(self):
        validate_registry(_input_pair())

    def test_input_measured_differently_rejected(self):
        with pytest.raises(ValueError, match="'n_jobs' differs from input 'prod' \\(quick mode\\)"):
            validate_registry(_input_pair(quick_kwargs={"n_jobs": 6}))
        with pytest.raises(ValueError, match="'seed' differs from input 'prod' \\(full mode\\)"):
            # An unseeded consumer runs at its default seed, not the master.
            validate_registry(_input_pair(seeded=False, run=_consumer_seeded_differently))

    def test_input_without_loader_rejected(self):
        specs = _input_pair()
        specs["prod"] = ExperimentSpec(id="prod", run=_producer, seeded=True, quick_kwargs={})
        with pytest.raises(ValueError, match="not a loadable experiment"):
            validate_registry(specs)

    def test_run_must_take_the_input(self):
        with pytest.raises(ValueError, match="takes no 'prod' argument"):
            validate_registry(_input_pair(run=_producer))

    def test_table3_data_round_trips_through_the_cache_encoding(self):
        import math

        from repro.archive.targets import TABLE3
        from repro.experiments.table3 import Table3Result
        from repro.runtime.cache import canonical_json

        measured = {name: dict(row) for name, row in TABLE3.items()}
        first = next(iter(measured))
        code = next(iter(measured[first]))
        measured[first][code] = math.nan  # a failed estimate
        result = Table3Result(
            measured=measured,
            published={name: dict(row) for name, row in TABLE3.items()},
            n_jobs=123,
        )
        # Strict JSON: a failed estimate travels as null, never as NaN.
        data = json.loads(json.dumps(result.to_data(), allow_nan=False))
        assert json.loads(canonical_json(result.to_data())) == data
        rebuilt = Table3Result.from_data(data)
        assert rebuilt.n_jobs == 123
        assert list(rebuilt.measured) == list(measured)
        assert math.isnan(rebuilt.measured[first][code])
        assert rebuilt.render() == result.render()
