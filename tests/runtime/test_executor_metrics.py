"""Executor <-> metrics registry integration: counters mirror outcomes."""

import time

import pytest

from repro.obs import MetricsRegistry
from repro.runtime import DagExecutor, TaskSpec, TaskStatus


def add(a, b):
    return a + b


def snooze(seconds):
    time.sleep(seconds)
    return seconds


def boom():
    raise RuntimeError("injected failure")


def _executor(metrics, jobs=1):
    return DagExecutor(jobs=jobs, backoff_base_s=0.01, backoff_cap_s=0.05, metrics=metrics)


class TestExecutorMetrics:
    def test_ok_tasks_counted_and_observed(self):
        metrics = MetricsRegistry()
        results = _executor(metrics).run(
            [
                TaskSpec(id="a", fn=add, kwargs={"a": 1, "b": 1}),
                TaskSpec(id="b", fn=add, kwargs={"a": 2, "b": 2}),
            ]
        )
        assert all(r.ok for r in results.values())
        assert metrics.counter("tasks_ok_total") == 2
        assert "task_wall_seconds_count 2" in metrics.to_prometheus()

    def test_failures_retries_and_skips_counted(self):
        metrics = MetricsRegistry()
        results = _executor(metrics).run(
            [
                TaskSpec(id="bad", fn=boom, retries=1),
                TaskSpec(id="child", fn=add, kwargs={"a": 0, "b": 0}, deps=("bad",)),
            ]
        )
        assert results["bad"].status is TaskStatus.FAILED
        assert results["child"].status is TaskStatus.SKIPPED
        assert metrics.counter("tasks_failed_total") == 1
        assert metrics.counter("tasks_skipped_total") == 1
        assert metrics.counter("retries_total") == 1

    @pytest.mark.parametrize("jobs", [1, 2], ids=["inline", "parallel"])
    def test_timeouts_counted_and_emitted_in_both_modes(self, jobs):
        metrics = MetricsRegistry()
        events = []
        executor = DagExecutor(
            jobs=jobs, metrics=metrics, on_event=lambda kind, **f: events.append((kind, f))
        )
        results = executor.run(
            [TaskSpec(id="slow", fn=snooze, kwargs={"seconds": 0.3}, timeout=0.05)]
        )
        assert results["slow"].status is TaskStatus.TIMEOUT
        assert metrics.counter("timeouts_total") == 1
        assert events == [("timeout", {"task": "slow", "attempt": 1, "timeout_s": 0.05})]

    def test_no_registry_is_fine(self):
        results = DagExecutor(jobs=1).run([TaskSpec(id="a", fn=add, kwargs={"a": 1, "b": 1})])
        assert results["a"].ok
