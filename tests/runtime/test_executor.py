"""Executor tests: DAG ordering, retries, timeouts, graceful degradation.

The worker functions live at module level, as ``TaskSpec`` requires;
flaky behaviour is injected through a counter file shared across
processes.
"""

import os
import random
import time

import pytest

from repro.runtime import DagExecutor, TaskSpec, TaskStatus, backoff_delay, toposort


def add(a, b):
    return a + b


def boom():
    raise RuntimeError("injected failure")


def flaky(counter_path, fail_times):
    """Fail the first *fail_times* invocations, then succeed."""
    count = 0
    if os.path.exists(counter_path):
        with open(counter_path) as fh:
            count = int(fh.read())
    with open(counter_path, "w") as fh:
        fh.write(str(count + 1))
    if count < fail_times:
        raise RuntimeError(f"flaky attempt {count}")
    return "recovered"


def snooze(seconds):
    time.sleep(seconds)
    return "slept"


def fail_after(delay):
    time.sleep(delay)
    raise RuntimeError("deliberate late failure")


def _executor(jobs=1):
    # Tiny backoff so retry tests stay fast.
    return DagExecutor(jobs=jobs, backoff_base_s=0.01, backoff_cap_s=0.05)


class TestToposort:
    def test_preserves_order_without_deps(self):
        tasks = [TaskSpec(id=i, fn=add) for i in "abc"]
        assert [t.id for t in toposort(tasks)] == ["a", "b", "c"]

    def test_orders_dependencies_first(self):
        tasks = [
            TaskSpec(id="c", fn=add, deps=("a", "b")),
            TaskSpec(id="b", fn=add, deps=("a",)),
            TaskSpec(id="a", fn=add),
        ]
        assert [t.id for t in toposort(tasks)] == ["a", "b", "c"]

    @pytest.mark.parametrize(
        "tasks",
        [
            [TaskSpec(id="a", fn=add), TaskSpec(id="a", fn=add)],
            [TaskSpec(id="a", fn=add, deps=("ghost",))],
            [
                TaskSpec(id="a", fn=add, deps=("b",)),
                TaskSpec(id="b", fn=add, deps=("a",)),
            ],
        ],
        ids=["duplicate", "unknown-dep", "cycle"],
    )
    def test_rejects_bad_graphs(self, tasks):
        with pytest.raises(ValueError):
            toposort(tasks)

    def test_rejects_self_dependency(self):
        with pytest.raises(ValueError):
            toposort([TaskSpec(id="a", fn=add, deps=("a",))])


class TestSerialMode:
    def test_runs_and_returns_values(self):
        results = _executor().run(
            [TaskSpec(id="sum", fn=add, kwargs={"a": 2, "b": 3})]
        )
        assert results["sum"].ok
        assert results["sum"].value == 5
        assert results["sum"].attempts == 1
        assert results["sum"].wall_s >= 0

    def test_failure_does_not_abort_batch(self):
        results = _executor().run(
            [
                TaskSpec(id="bad", fn=boom),
                TaskSpec(id="good", fn=add, kwargs={"a": 1, "b": 1}),
            ]
        )
        assert results["bad"].status is TaskStatus.FAILED
        assert "injected failure" in results["bad"].error
        assert results["good"].ok

    def test_dependents_of_failure_are_skipped(self):
        results = _executor().run(
            [
                TaskSpec(id="bad", fn=boom),
                TaskSpec(id="child", fn=add, kwargs={"a": 1, "b": 1}, deps=("bad",)),
                TaskSpec(id="grandchild", fn=add, kwargs={"a": 1, "b": 1}, deps=("child",)),
                TaskSpec(id="other", fn=add, kwargs={"a": 0, "b": 0}),
            ]
        )
        assert results["child"].status is TaskStatus.SKIPPED
        assert results["grandchild"].status is TaskStatus.SKIPPED
        assert results["other"].ok

    def test_retries_recover_flaky_task(self, tmp_path):
        counter = str(tmp_path / "count")
        results = _executor().run(
            [TaskSpec(id="flaky", fn=flaky, kwargs={"counter_path": counter, "fail_times": 2}, retries=2)]
        )
        assert results["flaky"].ok
        assert results["flaky"].value == "recovered"
        assert results["flaky"].attempts == 3

    def test_retries_exhausted_reports_failure(self, tmp_path):
        counter = str(tmp_path / "count")
        events = []
        executor = DagExecutor(
            jobs=1,
            backoff_base_s=0.01,
            on_event=lambda kind, **fields: events.append({"kind": kind, **fields}),
        )
        results = executor.run(
            [TaskSpec(id="flaky", fn=flaky, kwargs={"counter_path": counter, "fail_times": 5}, retries=1)]
        )
        assert results["flaky"].status is TaskStatus.FAILED
        assert results["flaky"].attempts == 2
        retry_events = [r for r in events if r["kind"] == "retry"]
        assert len(retry_events) == 1

    def test_inline_timeout_detected_post_hoc(self):
        results = _executor().run(
            [TaskSpec(id="slow", fn=snooze, kwargs={"seconds": 0.2}, timeout=0.05)]
        )
        assert results["slow"].status is TaskStatus.TIMEOUT
        assert results["slow"].value is None

    def test_backoff_is_deterministic(self):
        assert backoff_delay("t", 1, 0.25, 8.0) == backoff_delay("t", 1, 0.25, 8.0)
        assert backoff_delay("t", 1, 0.25, 8.0) != backoff_delay("t", 2, 0.25, 8.0)
        # Exponential in the attempt, capped, jittered by an (id, attempt) seed.
        assert backoff_delay("t", 3, 0.25, 8.0) == 1.0 * random.Random("t:3").uniform(0.5, 1.5)
        assert backoff_delay("t", 9, 0.25, 8.0) == 8.0 * random.Random("t:9").uniform(0.5, 1.5)


class TestProcessPoolMode:
    def test_parallel_values_match_serial(self):
        tasks = [
            TaskSpec(id=f"t{i}", fn=add, kwargs={"a": i, "b": i}) for i in range(6)
        ]
        serial = _executor(jobs=1).run(tasks)
        parallel = _executor(jobs=3).run(tasks)
        assert {k: v.value for k, v in serial.items()} == {
            k: v.value for k, v in parallel.items()
        }

    def test_failure_and_retry_across_processes(self, tmp_path):
        counter = str(tmp_path / "count")
        results = _executor(jobs=2).run(
            [
                TaskSpec(id="flaky", fn=flaky, kwargs={"counter_path": counter, "fail_times": 1}, retries=1),
                TaskSpec(id="bad", fn=boom),
                TaskSpec(id="good", fn=add, kwargs={"a": 4, "b": 5}),
            ]
        )
        assert results["flaky"].ok
        assert results["flaky"].attempts == 2
        assert results["bad"].status is TaskStatus.FAILED
        assert results["good"].value == 9

    def test_timeout_kills_worker_and_batch_completes(self):
        start = time.monotonic()
        results = _executor(jobs=2).run(
            [
                TaskSpec(id="hang", fn=snooze, kwargs={"seconds": 30.0}, timeout=0.3),
                TaskSpec(id="quick", fn=add, kwargs={"a": 1, "b": 2}),
            ]
        )
        elapsed = time.monotonic() - start
        assert results["hang"].status is TaskStatus.TIMEOUT
        assert results["quick"].value == 3
        assert elapsed < 20.0, "timed-out worker was not killed"

    def test_failed_task_billed_in_function_wall_not_queue_wait(self):
        # Both workers are pinned by sleepers, so the failing task waits
        # for a free slot well past its own runtime.  Its wall_s must
        # reflect the ~0.05s it actually ran, not the ~0.5s of waiting.
        results = _executor(jobs=2).run(
            [
                TaskSpec(id="busy1", fn=snooze, kwargs={"seconds": 0.5}),
                TaskSpec(id="busy2", fn=snooze, kwargs={"seconds": 0.5}),
                TaskSpec(id="late", fn=fail_after, kwargs={"delay": 0.05}),
            ]
        )
        assert results["late"].status is TaskStatus.FAILED
        assert "deliberate late failure" in results["late"].error
        assert results["late"].wall_s < 0.4, (
            f"failure billed {results['late'].wall_s:.2f}s: queue wait leaked into wall time"
        )

    def test_dag_dependency_feeds_downstream(self):
        results = _executor(jobs=2).run(
            [
                TaskSpec(id="a", fn=add, kwargs={"a": 1, "b": 1}),
                TaskSpec(id="b", fn=add, kwargs={"a": 2, "b": 2}, deps=("a",)),
            ]
        )
        assert results["a"].ok and results["b"].ok


class TestRunAttempt:
    def test_success_contract(self):
        from repro.runtime.executor import _run_attempt

        ok, value, wall, _rss = _run_attempt(add, {"a": 2, "b": 3})
        assert (ok, value) == (True, 5)
        assert wall >= 0

    def test_failure_returns_typed_message_and_wall(self):
        from repro.runtime.executor import _run_attempt

        ok, value, wall, _rss = _run_attempt(fail_after, {"delay": 0.05})
        assert ok is False
        assert value == "RuntimeError: deliberate late failure"
        assert wall >= 0.05


class TestValidation:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            DagExecutor(jobs=0)

    def test_rejects_bad_task_fields(self):
        with pytest.raises(ValueError):
            TaskSpec(id="", fn=add)
        with pytest.raises(ValueError):
            TaskSpec(id="t", fn=add, retries=-1)
        with pytest.raises(ValueError):
            TaskSpec(id="t", fn=add, timeout=0)
