"""DAG task executor with process parallelism, timeouts and retries.

:class:`DagExecutor` runs a set of :class:`~repro.runtime.task.TaskSpec`
objects respecting their dependency edges.  With ``jobs == 1`` tasks run
inline in the current process (no pickling, no subprocess overhead —
the mode the serial CLI default uses); with ``jobs >= 2`` each attempt
runs in its own child process under
:func:`~repro.runtime.supervise.supervise`, at most ``jobs`` at a time.

Failure semantics (both modes):

* an attempt that raises is retried up to ``task.retries`` times with
  exponential backoff and deterministic per-task jitter;
* a task whose attempts are exhausted is reported ``failed`` — the rest
  of the batch still completes (graceful degradation);
* tasks downstream of a failure are reported ``skipped``;
* a task attempt exceeding ``task.timeout`` seconds is a ``timeout``.
  In parallel mode its worker is SIGKILLed at the deadline; inline mode
  cannot preempt, so the attempt is detected as late *after* it returns
  and its value is discarded;
* a worker process that *dies* (segfault, ``os._exit``, OOM kill) fails
  its own attempt (``worker process died (exit code N)``), which is
  retried like any other failure.

Attempts are isolated from one another: a sibling's crash or timeout
never charges, kills or restarts an innocent attempt.  Failed attempts
report the wall time measured inside the worker.

Chaos hooks: pass ``fault_plan`` (a
:class:`~repro.runtime.faults.FaultPlan`) and the executor consults it
once per (task, attempt) at submission time, wrapping the task function
with the armed fault and emitting a ``fault_injected`` event.
Decisions are a pure function of the plan seed, so serial and parallel
runs inject identically.

Hooks: ``on_result`` observes every terminal :class:`TaskResult`
(including skips) the moment it is recorded — the runner's crash-safe
journal hangs off it.  ``on_event(kind, **fields)`` observes every
executor event (``retry``, ``timeout``, ``fault_injected``) — the runner
streams them into its traces.  Both fire on the thread that called
:meth:`DagExecutor.run`, in either mode.

The executor never raises on task failure; inspect the returned
``TaskResult`` map instead.
"""

from __future__ import annotations

import contextvars
import random
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.runtime.faults import FaultPlan
from repro.runtime.supervise import supervise
from repro.runtime.task import TaskResult, TaskSpec, TaskStatus, toposort

__all__ = ["DagExecutor", "backoff_delay"]


def backoff_delay(key: str, attempt: int, base_s: float, cap_s: float) -> float:
    """Exponential backoff with deterministic per-(key, attempt) jitter.

    The retry delay of both the DAG executor (keyed by task id) and the
    service's job supervisor (keyed by job id).
    """
    base = min(cap_s, base_s * (2 ** (attempt - 1)))
    return base * random.Random(f"{key}:{attempt}").uniform(0.5, 1.5)


def _peak_rss_kb() -> Optional[int]:
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:  # pragma: no cover - non-POSIX fallback
        return None


def _run_attempt(
    fn: Callable[..., Any], kwargs: Dict[str, Any]
) -> Tuple[bool, Any, float, Optional[int]]:
    """Worker-side wrapper: run one attempt, report wall time and peak RSS.

    Returns ``(True, value, wall, rss)`` on success and
    ``(False, "ExcType: message", wall, rss)`` on failure — errors travel
    back as values, so a failed attempt is billed the wall time it spent
    *in the function* and a parallel-mode supervisor can tell an error
    from a dead worker.
    """
    start = time.perf_counter()
    try:
        value = fn(**kwargs)
    except Exception as exc:
        wall = time.perf_counter() - start
        return False, f"{type(exc).__name__}: {exc}", wall, _peak_rss_kb()
    return True, value, time.perf_counter() - start, _peak_rss_kb()


class DagExecutor:
    """Run a task DAG with bounded parallelism, retries and timeouts."""

    def __init__(
        self,
        jobs: int = 1,
        *,
        backoff_base_s: float = 0.25,
        backoff_cap_s: float = 8.0,
        sleep: Callable[[float], None] = time.sleep,
        fault_plan: Optional[FaultPlan] = None,
        on_result: Optional[Callable[[TaskResult], None]] = None,
        on_event: Optional[Callable[..., None]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._sleep = sleep
        self.fault_plan = fault_plan
        self.on_result = on_result
        self.on_event = on_event
        self.metrics = metrics
        self._fault_counts: Dict[str, int] = {}

    # -- public API ---------------------------------------------------------

    def run(self, tasks: Sequence[TaskSpec]) -> Dict[str, TaskResult]:
        """Execute *tasks*; one :class:`TaskResult` per spec, never raises
        on task failure."""
        ordered = toposort(tasks)
        if not ordered:
            return {}
        self._fault_counts = {}
        if self.jobs == 1:
            return self._run_serial(ordered)
        return self._run_parallel(ordered)

    # -- shared helpers -----------------------------------------------------

    #: Event kinds mirrored into metrics counters when a registry is attached.
    _EVENT_COUNTERS = {
        "retry": "retries_total",
        "timeout": "timeouts_total",
        "fault_injected": "faults_injected_total",
    }

    def _event(self, kind: str, **fields: Any) -> None:
        if self.on_event is not None:
            self.on_event(kind, **fields)
        if self.metrics is not None and kind in self._EVENT_COUNTERS:
            self.metrics.inc(self._EVENT_COUNTERS[kind])

    def _notify(self, result: TaskResult) -> None:
        """Deliver a terminal result to ``on_result`` and the metrics."""
        result.faults = self._fault_counts.get(result.id, 0)
        if self.metrics is not None:
            self.metrics.inc(f"tasks_{result.status.value}_total")
            if result.status is not TaskStatus.SKIPPED:
                self.metrics.observe("task_wall_seconds", result.wall_s)
            if result.peak_rss_kb:
                self.metrics.max_gauge("peak_rss_kb", result.peak_rss_kb)
        if self.on_result is not None:
            self.on_result(result)

    def _arm(self, task: TaskSpec, attempt: int) -> Callable[..., Any]:
        """The callable for this attempt, fault-wrapped when the plan fires.

        Consulted exactly once per (task, attempt), at submission — the
        decision is order-free, so serial and parallel schedules inject
        the same faults for the same plan seed.
        """
        if self.fault_plan is None:
            return task.fn
        armed = self.fault_plan.arm(task.id, attempt)
        if armed is None:
            return task.fn
        self._fault_counts[task.id] = self._fault_counts.get(task.id, 0) + 1
        self._event(
            "fault_injected",
            task=task.id,
            attempt=attempt,
            fault=armed.kind,
            rule=armed.rule,
        )
        return armed.wrap(task.fn)

    @staticmethod
    def _children(tasks: Sequence[TaskSpec]) -> Dict[str, List[TaskSpec]]:
        children: Dict[str, List[TaskSpec]] = {t.id: [] for t in tasks}
        for task in tasks:
            for dep in task.deps:
                children[dep].append(task)
        return children

    def _skip_dependents(
        self,
        task_id: str,
        children: Dict[str, List[TaskSpec]],
        results: Dict[str, TaskResult],
    ) -> None:
        queue = deque(children[task_id])
        while queue:
            child = queue.popleft()
            if child.id in results:
                continue
            results[child.id] = TaskResult(
                id=child.id,
                status=TaskStatus.SKIPPED,
                error=f"dependency {task_id!r} did not succeed",
            )
            self._notify(results[child.id])
            queue.extend(children[child.id])

    # -- serial (inline) mode ----------------------------------------------

    def _run_serial(self, ordered: Sequence[TaskSpec]) -> Dict[str, TaskResult]:
        results: Dict[str, TaskResult] = {}
        children = self._children(ordered)
        for task in ordered:
            if task.id in results:  # already skipped via a failed dependency
                continue
            results[task.id] = self._attempt_serial(task)
            self._notify(results[task.id])
            if not results[task.id].ok:
                self._skip_dependents(task.id, children, results)
        return results

    def _attempt_serial(self, task: TaskSpec) -> TaskResult:
        attempt = 0
        while True:
            attempt += 1
            fn = self._arm(task, attempt)
            ok, value, wall, rss = _run_attempt(fn, dict(task.kwargs))
            if ok:
                if task.timeout is not None and wall > task.timeout:
                    # Inline mode cannot preempt: report the late attempt as
                    # a timeout and discard its value for parity with the
                    # process mode (where the value is lost with the worker).
                    status, error = TaskStatus.TIMEOUT, f"attempt exceeded {task.timeout}s"
                else:
                    return TaskResult(
                        id=task.id,
                        status=TaskStatus.OK,
                        value=value,
                        attempts=attempt,
                        wall_s=wall,
                        peak_rss_kb=rss,
                    )
            else:
                status, error = TaskStatus.FAILED, value
            if attempt <= task.retries:
                delay = backoff_delay(task.id, attempt, self.backoff_base_s, self.backoff_cap_s)
                self._event("retry", task=task.id, attempt=attempt, delay_s=round(delay, 4), error=error)
                self._sleep(delay)
                continue
            return TaskResult(id=task.id, status=status, error=error, attempts=attempt, wall_s=wall)

    # -- parallel mode ------------------------------------------------------

    def _run_parallel(self, ordered: Sequence[TaskSpec]) -> Dict[str, TaskResult]:
        results: Dict[str, TaskResult] = {}
        children = self._children(ordered)
        pending_deps = {t.id: set(t.deps) for t in ordered}
        # Queue entries are (task, attempt-number-about-to-run).
        ready: deque = deque((t, 1) for t in ordered if not t.deps)
        sleeping: List[Tuple[float, TaskSpec, int]] = []
        in_flight: Dict[Future, Tuple[TaskSpec, int]] = {}
        aborted = threading.Event()

        def stop() -> Optional[str]:
            return "executor aborted" if aborted.is_set() else None

        def finish(task: TaskSpec, result: TaskResult) -> None:
            results[task.id] = result
            self._notify(result)
            if result.ok:
                for child in children[task.id]:
                    pending_deps[child.id].discard(task.id)
                    if not pending_deps[child.id] and child.id not in results:
                        ready.append((child, 1))
            else:
                self._skip_dependents(task.id, children, results)

        def fail_or_retry(task: TaskSpec, attempt: int, status: TaskStatus, error: str, wall: float) -> None:
            if attempt <= task.retries:
                delay = backoff_delay(task.id, attempt, self.backoff_base_s, self.backoff_cap_s)
                self._event("retry", task=task.id, attempt=attempt, delay_s=round(delay, 4), error=error)
                sleeping.append((time.monotonic() + delay, task, attempt + 1))
            else:
                finish(task, TaskResult(id=task.id, status=status, error=error, attempts=attempt, wall_s=wall))

        # Supervisor threads only watch their attempt's child process;
        # arming, events, hooks and retries all stay on this thread.
        pool = ThreadPoolExecutor(max_workers=self.jobs, thread_name_prefix="repro-attempt")
        try:
            while ready or sleeping or in_flight:
                now = time.monotonic()
                due = [entry for entry in sleeping if entry[0] <= now]
                for entry in due:
                    sleeping.remove(entry)
                    ready.appendleft((entry[1], entry[2]))

                while ready and len(in_flight) < self.jobs:
                    task, attempt = ready.popleft()
                    fn = self._arm(task, attempt)
                    # The child inherits this thread's context (the
                    # ambient tracer), as an inline attempt would.
                    future = pool.submit(
                        contextvars.copy_context().run,
                        supervise,
                        _run_attempt,
                        (fn, dict(task.kwargs)),
                        deadline_s=task.timeout,
                        stop=stop,
                    )
                    in_flight[future] = (task, attempt)

                wake = min((entry[0] for entry in sleeping), default=None)
                if not in_flight:
                    if wake is not None:  # idle until the earliest backoff expires
                        self._sleep(max(0.0, wake - time.monotonic()))
                    continue

                timeout = None if wake is None else max(0.0, wake - time.monotonic())
                done, _ = wait(list(in_flight), timeout=timeout, return_when=FIRST_COMPLETED)
                for future in done:
                    task, attempt = in_flight.pop(future)
                    outcome = future.result()
                    if outcome.kind == "ok":
                        ok, value, wall, rss = outcome.value
                        if ok:
                            finish(
                                task,
                                TaskResult(
                                    id=task.id,
                                    status=TaskStatus.OK,
                                    value=value,
                                    attempts=attempt,
                                    wall_s=wall,
                                    peak_rss_kb=rss,
                                ),
                            )
                        else:
                            fail_or_retry(task, attempt, TaskStatus.FAILED, value, wall)
                    elif outcome.kind == "timeout":
                        self._event("timeout", task=task.id, attempt=attempt, timeout_s=task.timeout)
                        fail_or_retry(
                            task,
                            attempt,
                            TaskStatus.TIMEOUT,
                            f"attempt exceeded {task.timeout}s",
                            outcome.elapsed_s,
                        )
                    else:  # died
                        fail_or_retry(
                            task,
                            attempt,
                            TaskStatus.FAILED,
                            f"worker process died (exit code {outcome.exitcode})",
                            outcome.elapsed_s,
                        )
        finally:
            aborted.set()  # a raising hook must not leave workers running
            pool.shutdown(wait=True)
        return results
