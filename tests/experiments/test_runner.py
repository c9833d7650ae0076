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
