"""CLI tests for ``python -m repro.obs``: exit codes and output formats."""

import pytest

from repro.obs import TraceWriter, Tracer, MetricsRegistry
from repro.obs.cli import EXIT_OK, EXIT_REGRESSION, main
from repro.obs.metrics import METRICS_NAME


def _make_run(tmp_path, name, tasks):
    """A run directory with a trace.jsonl of task-summary spans."""
    run_dir = tmp_path / name
    run_dir.mkdir()
    writer = TraceWriter(run_dir / "trace.jsonl", trace_id=name)
    tracer = Tracer(writer, trace_id=name)
    for task, attrs in tasks.items():
        writer.emit(
            {
                "type": "span",
                "name": f"task:{task}",
                "task": task,
                "trace_id": name,
                "span_id": None,
                "parent_id": None,
                "status": attrs.get("status", "ok"),
                "ts": attrs.get("ts", 1.0),
                "wall_s": attrs.get("wall_s", 0.0),
                **{k: v for k, v in attrs.items() if k not in ("status", "ts", "wall_s")},
            }
        )
    del tracer
    return str(run_dir)


class TestSummarize:
    def test_summarize_run_dir(self, tmp_path, capsys):
        run = _make_run(tmp_path, "run-a", {"figure2": {"wall_s": 1.0}})
        assert main(["summarize", run]) == EXIT_OK
        out = capsys.readouterr().out
        assert "schema v2" in out
        assert "1 task(s)" in out
        assert "task:figure2" in out

    def test_summarize_missing_path_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["summarize", str(tmp_path / "nope")])
        assert exc.value.code == 2


class TestDiff:
    def test_clean_diff_exits_zero(self, tmp_path, capsys):
        a = _make_run(tmp_path, "run-a", {"x": {"wall_s": 1.0}})
        b = _make_run(tmp_path, "run-b", {"x": {"wall_s": 1.05}})
        assert main(["diff", a, b]) == EXIT_OK
        assert "no regressions" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        a = _make_run(tmp_path, "run-a", {"x": {"wall_s": 1.0}})
        b = _make_run(tmp_path, "run-b", {"x": {"wall_s": 2.0}})
        assert main(["diff", a, b]) == EXIT_REGRESSION
        assert "REGRESSION: x" in capsys.readouterr().out

    def test_threshold_flag_loosens_the_gate(self, tmp_path, capsys):
        a = _make_run(tmp_path, "run-a", {"x": {"wall_s": 1.0}})
        b = _make_run(tmp_path, "run-b", {"x": {"wall_s": 2.0}})
        # 2x slower but the gate asks for 3x.
        assert main(["diff", a, b, "--threshold", "2.0"]) == EXIT_OK
        capsys.readouterr()

    def test_min_wall_flag_filters_jitter(self, tmp_path, capsys):
        a = _make_run(tmp_path, "run-a", {"x": {"wall_s": 0.01}})
        b = _make_run(tmp_path, "run-b", {"x": {"wall_s": 0.04}})
        assert main(["diff", a, b, "--min-wall", "0.1"]) == EXIT_OK
        assert main(["diff", a, b, "--min-wall", "0.0"]) == EXIT_REGRESSION
        capsys.readouterr()

    def test_negative_threshold_is_usage_error(self, tmp_path):
        a = _make_run(tmp_path, "run-a", {})
        with pytest.raises(SystemExit) as exc:
            main(["diff", a, a, "--threshold", "-1"])
        assert exc.value.code == 2


class TestExport:
    def test_prom_prefers_flushed_metrics_json(self, tmp_path, capsys):
        run = _make_run(tmp_path, "run-a", {"x": {"wall_s": 1.0}})
        reg = MetricsRegistry()
        reg.inc("cache_hits_total", 9)
        (tmp_path / "run-a" / METRICS_NAME).write_text(reg.to_json())
        assert main(["export", run, "--format", "prom"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "repro_cache_hits_total 9" in out

    def test_prom_rebuilds_from_trace_when_no_metrics_json(self, tmp_path, capsys):
        run = _make_run(tmp_path, "run-a", {"x": {"wall_s": 1.0}})
        assert main(["export", run, "--format", "prom"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "repro_task_wall_seconds_count 1" in out

    def test_csv_has_one_row_per_span(self, tmp_path, capsys):
        run = _make_run(tmp_path, "run-a", {"x": {"wall_s": 1.0}, "y": {"wall_s": 2.0}})
        assert main(["export", run, "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("name,task,status")
        assert len(lines) == 3

    def test_output_flag_writes_file(self, tmp_path, capsys):
        run = _make_run(tmp_path, "run-a", {"x": {"wall_s": 1.0}})
        dest = tmp_path / "metrics.prom"
        assert main(["export", run, "--format", "prom", "--output", str(dest)]) == EXIT_OK
        capsys.readouterr()
        assert dest.exists()
        assert "task_wall_seconds" in dest.read_text()
