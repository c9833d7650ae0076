"""Observability integration drills for the experiments CLI.

Three layers:

* streaming — a run with ``--out`` leaves a schema-v2 ``trace.jsonl``
  whose worker spans nest under the run span, plus ``metrics.json``;
* kill-and-inspect — a run killed mid-flight (chaos ``exit`` in serial
  mode) still leaves a readable trace covering every completed task;
* pool chaos drill — under ``--jobs 2`` a chaos ``exit`` kills a
  *worker*; the parent charges only that worker's task, finishes the
  batch, and ``--resume`` completes the killed task with journal and
  trace consistent throughout.
"""

import os
import pstats
import subprocess
import sys

import pytest

from repro.experiments.runner import EXIT_OK, EXIT_TASK_FAILURE, main
from repro.obs import read_trace
from repro.obs.cli import main as obs_main
from repro.obs.metrics import METRICS_NAME, MetricsRegistry
from repro.runtime import JOURNAL_NAME, RunJournal

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def _run_cli(args, timeout=300):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _latest(out_dir):
    return os.path.realpath(os.path.join(out_dir, "latest"))


class TestTraceStreaming:
    def test_run_streams_schema2_trace_with_nested_spans(self, tmp_path, cache_dir, capsys):
        out_dir = str(tmp_path / "results")
        assert main(["figure2", "--quick", "--out", out_dir, "--cache-dir", cache_dir]) == EXIT_OK
        capsys.readouterr()
        run_dir = _latest(out_dir)
        trace = read_trace(os.path.join(run_dir, "trace.jsonl"))
        assert trace.schema == 2
        assert not trace.truncated

        # The flat Telemetry summary span shares the task:<id> name with
        # the worker's hierarchical span; keep only spans that carry ids.
        by_name = {s["name"]: s for s in trace.spans if s.get("span_id")}
        # The run span is the root; the worker's task span hangs off it.
        root = by_name["run"]
        assert root["parent_id"] is None
        assert root["status"] == "ok"
        task = by_name["task:figure2"]
        assert task["parent_id"] == root["span_id"]
        assert task["trace_id"] == root["trace_id"]
        # Cache phases and in-experiment phases nest under the task span.
        assert by_name["cache.compute"]["parent_id"] == task["span_id"]
        fit = by_name["figure2.fit"]
        solve = by_name["mds.solve"]
        assert solve["parent_id"] == fit["span_id"]
        assert solve["n_iter"] >= 1

    def test_run_flushes_metrics_json(self, tmp_path, cache_dir, capsys):
        out_dir = str(tmp_path / "results")
        assert main(["figure2", "--quick", "--out", out_dir, "--cache-dir", cache_dir]) == EXIT_OK
        capsys.readouterr()
        metrics_path = os.path.join(_latest(out_dir), METRICS_NAME)
        reg = MetricsRegistry.from_json(open(metrics_path).read())
        assert reg.counter("cache_misses_total") == 1
        assert reg.counter("tasks_ok_total") == 1
        assert reg.gauges["run_wall_seconds"] > 0

    def test_pool_mode_trace_covers_all_tasks(self, tmp_path, cache_dir, capsys):
        out_dir = str(tmp_path / "results")
        code = main(
            ["figure2", "table1", "--quick", "--jobs", "2", "--out", out_dir,
             "--cache-dir", cache_dir]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        trace = read_trace(os.path.join(_latest(out_dir), "trace.jsonl"))
        assert set(trace.task_spans) == {"figure2", "table1"}
        # Worker spans from both processes interleave in one file without
        # corrupting any line.
        assert not trace.truncated

    def test_metrics_out_writes_prometheus_text(self, tmp_path, cache_dir, capsys):
        prom = tmp_path / "metrics.prom"
        assert main(["figure2", "--quick", "--cache-dir", cache_dir,
                     "--metrics-out", str(prom)]) == EXIT_OK
        capsys.readouterr()
        text = prom.read_text()
        assert "# TYPE repro_cache_misses_total counter" in text
        assert "repro_tasks_ok_total 1" in text

    def test_profile_writes_loadable_pstats(self, tmp_path, cache_dir, capsys):
        out_dir = str(tmp_path / "results")
        assert main(["figure2", "--quick", "--out", out_dir, "--cache-dir", cache_dir,
                     "--profile"]) == EXIT_OK
        capsys.readouterr()
        stats = pstats.Stats(os.path.join(_latest(out_dir), "profiles", "figure2.pstats"))
        assert stats.total_calls > 0

    def test_profile_without_out_is_usage_error(self, cache_dir):
        with pytest.raises(SystemExit):
            main(["figure2", "--quick", "--cache-dir", cache_dir, "--profile"])


class TestKillAndInspect:
    def test_killed_run_leaves_readable_trace_covering_completed_tasks(
        self, tmp_path, cache_dir
    ):
        out_dir = str(tmp_path / "results")
        # Serial run: figure2 completes, then the exit fault takes the
        # whole process down inside table2 — a kill -9 mid-run.
        proc = _run_cli(
            ["figure2", "table2", "--quick", "--jobs", "1", "--out", out_dir,
             "--cache-dir", cache_dir, "--chaos", "1:table2=exit"]
        )
        assert proc.returncode == 70, proc.stderr

        trace = read_trace(os.path.join(_latest(out_dir), "trace.jsonl"))
        # Every task that completed before the kill has its span on disk.
        assert trace.task_spans["figure2"]["status"] == "ok"
        assert "table2" not in trace.task_spans
        # No root "run" span: its absence is the killed-run marker.
        assert "run" not in {s["name"] for s in trace.spans}
        # The fault breadcrumb survives even though the process died
        # immediately after emitting it.
        fault_events = [e for e in trace.events if e.get("kind") == "fault_fired"]
        assert fault_events and fault_events[0]["task"] == "table2"

    def test_summarize_renders_killed_run(self, tmp_path, cache_dir, capsys):
        out_dir = str(tmp_path / "results")
        proc = _run_cli(
            ["figure2", "table2", "--quick", "--out", out_dir,
             "--cache-dir", cache_dir, "--chaos", "1:table2=exit"]
        )
        assert proc.returncode == 70, proc.stderr
        assert obs_main(["summarize", _latest(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "task:figure2" in out


class TestPoolChaosDrill:
    def test_isolated_worker_death_and_resume(self, tmp_path, cache_dir, capsys):
        out_dir = str(tmp_path / "results")
        # Parallel mode: the exit fault kills the *worker* running
        # table2.  The parent survives, and the death is charged to
        # table2's attempt alone: figure2, in flight beside it, is ok.
        proc = _run_cli(
            ["figure2", "table2", "--quick", "--jobs", "2", "--out", out_dir,
             "--cache-dir", cache_dir, "--chaos", "1:table2=exit"]
        )
        assert proc.returncode == EXIT_TASK_FAILURE, proc.stderr

        run_dir = _latest(out_dir)
        _meta, entries = RunJournal.load(os.path.join(run_dir, JOURNAL_NAME))
        # The journal stayed consistent through the worker death: every
        # task has a definite outcome, and only the chaos victim failed.
        assert set(entries) == {"figure2", "table2"}
        assert entries["table2"]["status"] == "failed"
        assert entries["figure2"]["status"] == "ok"

        trace = read_trace(os.path.join(run_dir, "trace.jsonl"))
        # The parent survived, so the run span closed (with error status).
        run_spans = [s for s in trace.spans if s["name"] == "run"]
        assert run_spans and run_spans[0]["status"] == "error"

        # Resume without chaos: journaled-ok tasks are served from the
        # journal + cache, the rest re-execute, and the run completes.
        assert main(["--resume", run_dir, "--cache-dir", cache_dir]) == EXIT_OK
        out = capsys.readouterr().out
        assert "task(s) already complete" in out
        _meta, entries = RunJournal.load(os.path.join(run_dir, JOURNAL_NAME))
        assert entries["figure2"]["status"] == "ok"
        assert entries["table2"]["status"] == "ok"
        # The resumed run appended to the same streamed trace; it now
        # covers both tasks and stayed readable throughout.
        trace = read_trace(os.path.join(run_dir, "trace.jsonl"))
        assert trace.task_spans["table2"]["status"] == "ok"
        assert not trace.truncated


class TestObsDiffOnRealRuns:
    def test_warm_vs_cold_run_diff_is_clean(self, tmp_path, cache_dir, capsys):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["figure2", "--quick", "--out", out_a, "--cache-dir", cache_dir]) == EXIT_OK
        assert main(["figure2", "--quick", "--out", out_b, "--cache-dir", cache_dir]) == EXIT_OK
        capsys.readouterr()
        # Cold vs warm: compute_s carries over, so no phantom regression
        # or improvement from cache luck.
        assert obs_main(["diff", _latest(out_a), _latest(out_b)]) == 0
        out = capsys.readouterr().out
        assert "cache hit rate: 0% -> 100%" in out


class TestJournalDrivenScheduling:
    def test_fresh_run_orders_by_previous_journal(self, tmp_path, cache_dir, capsys):
        out_dir = tmp_path / "results"
        # Fabricate a previous run whose journal says table1 dominated.
        prior = out_dir / "run-prior"
        prior.mkdir(parents=True)
        journal = RunJournal(prior / JOURNAL_NAME)
        journal.record("figure2", status="ok", wall_s=0.1)
        journal.record("table1", status="ok", wall_s=99.0)
        os.symlink("run-prior", out_dir / "latest", target_is_directory=True)

        assert main(["figure2", "table1", "--quick", "--out", str(out_dir),
                     "--cache-dir", cache_dir]) == EXIT_OK
        capsys.readouterr()
        trace = read_trace(os.path.join(_latest(str(out_dir)), "trace.jsonl"))
        sched = [e for e in trace.events if e.get("kind") == "schedule"]
        assert sched and sched[0]["policy"] == "longest_first"
        assert sched[0]["order"] == ["table1", "figure2"]
        # Both tasks still ran to completion in the new order.
        assert set(trace.task_spans) == {"figure2", "table1"}

    def test_no_history_keeps_registry_order_silently(self, tmp_path, cache_dir, capsys):
        out_dir = str(tmp_path / "results")
        assert main(["figure2", "table1", "--quick", "--out", out_dir,
                     "--cache-dir", cache_dir]) == EXIT_OK
        capsys.readouterr()
        trace = read_trace(os.path.join(_latest(out_dir), "trace.jsonl"))
        assert not [e for e in trace.events if e.get("kind") == "schedule"]
