"""Tests for the log synthesizer — the DESIGN.md §4.1 substitution."""

import math

import numpy as np
import pytest

from repro.archive import spec_for, synthesize, synthesize_all, synthesize_workload
from repro.archive.targets import PRODUCTION_NAMES, TABLE1, TABLE2_NAMES, hurst_target
from repro.obs import ListSink, Tracer, reset_tracer, set_tracer
from repro.selfsim import hurst_summary, workload_series
from repro.workload import compute_statistics


@pytest.fixture(scope="module")
def ctc():
    return synthesize_workload("CTC", n_jobs=8000, seed=0)


@pytest.fixture(scope="module")
def ctc_stats(ctc):
    return compute_statistics(ctc).by_sign()


class TestSpec:
    def test_spec_fields(self):
        spec = spec_for("LANL", n_jobs=500)
        assert spec.machine.name == "LANL"
        assert spec.n_jobs == 500
        assert spec.runtime.median() == pytest.approx(68.0, rel=1e-6)
        assert set(spec.hurst) == {"used_procs", "run_time", "cpu_time", "interarrival"}

    def test_sublog_spec_inherits_parent_hurst(self):
        spec = spec_for("L2")
        assert spec.hurst["run_time"] == pytest.approx(hurst_target("LANL", "run_time"))

    def test_unknown_workload(self):
        with pytest.raises(KeyError, match="unknown workload"):
            spec_for("MARS")

    def test_too_few_jobs(self):
        with pytest.raises(ValueError, match="n_jobs"):
            spec_for("CTC", n_jobs=10)


class TestOrderStatistics:
    """The synthesized paths must reproduce the published order statistics
    essentially exactly (rank remap)."""

    @pytest.mark.parametrize("sign", ["Rm", "Ri", "Pm", "Pi", "Cm", "Ci", "Im", "Ii"])
    def test_ctc_cell(self, ctc_stats, sign):
        target = TABLE1["CTC"][sign]
        assert ctc_stats[sign] == pytest.approx(target, rel=0.1)

    def test_loads(self, ctc_stats):
        assert ctc_stats["RL"] == pytest.approx(0.56, rel=0.08)
        assert ctc_stats["CL"] == pytest.approx(0.47, rel=0.08)

    def test_population_ratios(self, ctc_stats):
        assert ctc_stats["U"] == pytest.approx(0.0086, rel=0.15)
        assert ctc_stats["C"] == pytest.approx(0.79, abs=0.03)

    def test_na_fields_stay_missing(self):
        nasa = synthesize_workload("NASA", n_jobs=2000, seed=0)
        stats = compute_statistics(nasa)
        # NASA: RL published as N/A -> the synthesizer calibrates the
        # stream's runtime load to the published CPU load (rule 1 in
        # reverse), so the two measured loads agree.
        assert stats.runtime_load == pytest.approx(stats.cpu_load, rel=0.15)
        assert math.isnan(stats.pct_completed)  # C is N/A for NASA

    def test_llnl_cpu_missing(self):
        llnl = synthesize_workload("LLNL", n_jobs=2000, seed=0)
        assert np.all(llnl.column("avg_cpu_time") < 0)


class TestStructure:
    def test_sizes_legal_for_machine(self):
        lanl = synthesize_workload("LANLb", n_jobs=3000, seed=1)
        procs = lanl.column("used_procs")
        assert np.all(procs >= 32)
        assert set(np.unique(procs)) <= {32, 64, 128, 256, 512, 1024}

    def test_submit_monotone(self, ctc):
        assert np.all(np.diff(ctc.column("submit_time")) >= 0)

    def test_deterministic(self):
        a = synthesize_workload("KTH", n_jobs=1000, seed=3)
        b = synthesize_workload("KTH", n_jobs=1000, seed=3)
        assert np.array_equal(a.column("run_time"), b.column("run_time"))

    def test_size_runtime_positively_coupled(self, ctc):
        procs = ctc.column("used_procs").astype(float)
        run = ctc.column("run_time")
        corr = np.corrcoef(np.log(procs), np.log(run))[0, 1]
        assert corr > 0.1

    def test_spec_object_accepted(self):
        spec = spec_for("SDSCi", n_jobs=1000)
        w = synthesize_workload(spec, seed=5)
        assert len(w) == 1000
        assert w.name == "SDSCi"


class TestSelfSimilarity:
    @pytest.mark.parametrize("attribute", ["run_time", "interarrival"])
    def test_hurst_tracks_target(self, attribute):
        w = synthesize_workload("LANL", n_jobs=16000, seed=2)
        target = hurst_target("LANL", attribute)
        measured = np.mean(list(hurst_summary(workload_series(w, attribute)).values()))
        assert measured == pytest.approx(target, abs=0.12)

    def test_low_hurst_workload_stays_low(self):
        w = synthesize_workload("NASA", n_jobs=16000, seed=2)
        target = hurst_target("NASA", "interarrival")  # ~0.49
        measured = np.mean(
            list(hurst_summary(workload_series(w, "interarrival")).values())
        )
        assert measured < 0.6
        assert measured == pytest.approx(target, abs=0.12)


class TestSynthesizeAll:
    def test_all_production(self):
        logs = synthesize_all(n_jobs=500, seed=0)
        assert set(logs) == set(PRODUCTION_NAMES)
        for name, w in logs.items():
            assert w.name == name
            assert len(w) == 500

    def test_with_sublogs(self):
        logs = synthesize_all(n_jobs=500, seed=0, include_sublogs=True)
        assert len(logs) == 18
        assert "L3" in logs and "S4" in logs

    def test_independent_streams(self):
        logs = synthesize_all(n_jobs=500, seed=0)
        a = logs["LANL"].column("run_time")
        b = logs["LANLb"].column("run_time")
        assert not np.array_equal(a, b)


class TestArchiveMemo:
    """An integer-seeded archive is synthesized once per process; the memo
    is emptied before each test by the suite's autouse fixture."""

    @pytest.fixture
    def synthesized(self, monkeypatch):
        """Names passed to ``synthesize_workload``, counted through the
        module attribute ``synthesize_all`` calls (the one perfbench wraps)."""
        names = []
        real = synthesize.synthesize_workload

        def counting(name, **kwargs):
            names.append(name)
            return real(name, **kwargs)

        monkeypatch.setattr(synthesize, "synthesize_workload", counting)
        return names

    def test_repeat_call_synthesizes_once(self, synthesized):
        synthesize_all(n_jobs=500, seed=0)
        synthesize_all(n_jobs=500, seed=0)
        assert len(synthesized) == 10

    def test_calls_share_workloads_not_dicts(self, synthesized):
        a = synthesize_all(n_jobs=500, seed=0)
        b = synthesize_all(n_jobs=500, seed=0)
        assert a is not b
        assert all(a[name] is b[name] for name in PRODUCTION_NAMES)
        a.pop("CTC")
        c = synthesize_all(n_jobs=500, seed=0)
        assert list(c) == list(PRODUCTION_NAMES)
        assert c["CTC"] is b["CTC"]
        assert len(synthesized) == 10

    def test_unseeded_and_generator_seeds_are_never_shared(self, synthesized):
        synthesize_all(n_jobs=500, seed=None)
        synthesize_all(n_jobs=500, seed=None)
        assert len(synthesized) == 20
        synthesize_all(n_jobs=500, seed=np.random.default_rng(0))
        synthesize_all(n_jobs=500, seed=np.random.default_rng(0))
        assert len(synthesized) == 40

    def test_other_arguments_recompute(self, synthesized):
        synthesize_all(n_jobs=500, seed=0)
        synthesize_all(n_jobs=600, seed=0)
        synthesize_all(n_jobs=600, seed=1)
        synthesize_all(n_jobs=600, seed=1, include_sublogs=True)
        assert len(synthesized) == 10 + 10 + 10 + 10 + len(TABLE2_NAMES)
        # One entry: the first archive is gone.
        synthesize_all(n_jobs=500, seed=0)
        assert len(synthesized) == 50 + len(TABLE2_NAMES)

    def test_span_marks_a_shared_archive(self):
        sink = ListSink()
        token = set_tracer(Tracer(sink))
        try:
            synthesize_all(n_jobs=500, seed=0)
            synthesize_all(n_jobs=500, seed=0)
        finally:
            reset_tracer(token)
        spans = [r for r in sink.records if r["name"] == "archive.synthesize"]
        assert [(s["n_jobs"], s["logs"], s["shared"]) for s in spans] == [
            (500, 10, False),
            (500, 10, True),
        ]


class TestExportArchive:
    def test_export_and_reload(self, tmp_path):
        from repro.archive import export_archive
        from repro.workload import read_swf

        paths = export_archive(tmp_path, n_jobs=500, seed=0)
        assert set(paths) == set(PRODUCTION_NAMES)
        for name, path in paths.items():
            assert path.endswith(".swf.gz")
        back = read_swf(paths["LANL"])
        assert len(back) == 500
        assert back.machine.processors == 1024
        index = (tmp_path / "INDEX.txt").read_text()
        assert "CTC" in index and "seed=0" in index

    def test_uncompressed_mode(self, tmp_path):
        from repro.archive import export_archive
        from repro.workload import read_swf

        paths = export_archive(tmp_path, n_jobs=500, seed=0, compress=False)
        assert paths["CTC"].endswith(".swf")
        assert len(read_swf(paths["CTC"])) == 500
