"""Tests for the experiments CLI."""

import os

import pytest

from repro.experiments.runner import main


@pytest.fixture
def cache_dir(tmp_path):
    """Isolated result cache so tests never touch results/cache."""
    return str(tmp_path / "cache")


class TestRunner:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for exp in ("table1", "figure1", "figure5", "param", "load"):
            assert exp in out

    def test_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_bad_jobs(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure2", "--jobs", "0"])

    def test_non_positive_timeout_is_a_usage_error(self, cache_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure2", "--timeout", "0", "--cache-dir", cache_dir])
        assert exc.value.code == 2
        assert "--timeout must be > 0" in capsys.readouterr().err

    def test_single_quick_run(self, cache_dir, capsys):
        assert main(["figure2", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "[OK ]" in out

    def test_out_dir_writes_into_stamped_run_dir(self, tmp_path, cache_dir, capsys):
        out_dir = str(tmp_path / "results")
        assert main(["figure2", "--out", out_dir, "--cache-dir", cache_dir]) == 0
        latest = os.path.join(out_dir, "latest")
        assert os.path.islink(latest)
        run_dir = os.path.realpath(latest)
        assert os.path.basename(run_dir).startswith("run-")
        assert "seed0" in os.path.basename(run_dir)
        for ext in ("txt", "csv", "svg"):
            assert os.path.exists(os.path.join(latest, f"figure2.{ext}"))

    def test_successive_runs_do_not_overwrite(self, tmp_path, cache_dir, capsys):
        out_dir = str(tmp_path / "results")
        assert main(["figure2", "--out", out_dir, "--cache-dir", cache_dir]) == 0
        first = os.path.realpath(os.path.join(out_dir, "latest"))
        assert main(["figure2", "--out", out_dir, "--cache-dir", cache_dir]) == 0
        second = os.path.realpath(os.path.join(out_dir, "latest"))
        assert first != second
        assert os.path.exists(os.path.join(first, "figure2.txt"))
        assert os.path.exists(os.path.join(second, "figure2.txt"))

    def test_quick_flag_threads_n_jobs(self, cache_dir, capsys):
        assert main(["table2", "--quick", "--cache-dir", cache_dir]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_report_scorecard(self, tmp_path, cache_dir, capsys):
        report = tmp_path / "score.md"
        assert main(["figure2", "--report", str(report), "--cache-dir", cache_dir]) == 0
        text = report.read_text()
        assert "Reproduction scorecard" in text
        assert "claims hold" in text
        assert "| figure2 |" in text

    def test_second_run_hits_cache(self, cache_dir, capsys):
        assert main(["figure2", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["figure2", "--cache-dir", cache_dir]) == 0
        assert "cached" in capsys.readouterr().out

    def test_no_cache_forces_recompute(self, cache_dir, capsys):
        assert main(["figure2", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["figure2", "--cache-dir", cache_dir, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cached" not in out
        assert "finished in" in out


@pytest.fixture
def table3_rows(monkeypatch):
    """Count Table 3 row measurements (every run below is serial, inline)."""
    import repro.experiments.table3 as table3_mod

    calls = []
    real = table3_mod.measure_table3_row

    def counting(workload):
        calls.append(workload.name)
        return real(workload)

    monkeypatch.setattr(table3_mod, "measure_table3_row", counting)
    return calls


def _outputs(out_dir, exp_id):
    latest = os.path.join(str(out_dir), "latest")
    return {
        ext: open(os.path.join(latest, f"{exp_id}.{ext}"), "rb").read()
        for ext in ("txt", "csv", "svg")
    }


class TestTable3Reuse:
    def test_table3_measured_once_with_figure5(self, tmp_path, table3_rows, capsys):
        argv = ["table3", "figure5", "--quick", "--cache-dir", str(tmp_path / "c")]
        assert main(argv) == 0
        assert len(table3_rows) == 15  # one per workload, not 30

    def test_figure5_matches_a_standalone_run(self, tmp_path, table3_rows, capsys):
        both, alone = tmp_path / "both", tmp_path / "alone"
        argv = ["table3", "figure5", "--quick", "--cache-dir", str(tmp_path / "c1")]
        assert main(argv + ["--out", str(both)]) == 0
        # Standalone on a fresh cache, figure5 measures Table 3 itself.
        del table3_rows[:]
        argv = ["figure5", "--quick", "--cache-dir", str(tmp_path / "c2")]
        assert main(argv + ["--out", str(alone)]) == 0
        assert len(table3_rows) == 15
        assert _outputs(both, "figure5") == _outputs(alone, "figure5")

    def test_failed_table3_skips_figure5_and_resume_completes(self, tmp_path, capsys):
        cache, out = str(tmp_path / "c"), str(tmp_path / "out")
        argv = ["table3", "figure5", "--quick", "--cache-dir", cache, "--out", out]
        assert main(argv + ["--chaos", "3:table3=raise", "--retries", "0"]) == 1
        printed = capsys.readouterr().out
        assert "=== table3: FAILED ===" in printed
        assert "=== figure5: SKIPPED ===" in printed
        assert "dependency 'table3' did not succeed" in printed
        run_dir = os.path.realpath(os.path.join(out, "latest"))
        assert main(["--resume", run_dir, "--cache-dir", cache]) == 0
        printed = capsys.readouterr().out
        assert "0 of 2 task(s) already complete, 2 to run" in printed
        assert "[table3 finished in" in printed
        assert "[figure5 finished in" in printed
        assert os.path.exists(os.path.join(run_dir, "figure5.svg"))
