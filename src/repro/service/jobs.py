"""The service's job supervisor: bounded admission, hard deadlines.

A :class:`JobRunner` owns a fixed-size pool of *supervisor threads*.
Each accepted submission becomes one journaled job record
(:mod:`repro.service.store`) and one pool task; the supervisor thread

1. marks the job ``running`` and opens the job span (parented to the
   submitting request's span, so the trace nests request → job →
   worker spans),
2. answers a cache hit itself: an attempt whose key (recorded at
   submit) is already published finishes ``done`` from that payload,
   with no process started; every other attempt — one that must
   compute, or one carrying an armed chaos fault — runs in a dedicated
   **worker subprocess** (:mod:`repro.service.worker`) under the
   runtime's supervised-attempt primitive
   (:func:`repro.runtime.supervise.supervise`): every tick it checks
   the result pipe, the job's cancel flag, the drain and the
   ``job_timeout_s`` deadline,
3. on deadline, client cancellation or an abandoned drain the worker is
   SIGKILLed and reaped within a tick — timeouts are *hard*: the slot
   frees immediately, no thread is left wedged behind a hung compute,
4. retries transient failures (worker crash, injected fault, I/O
   contention) with the runtime's jittered exponential backoff
   (:func:`repro.runtime.executor.backoff_delay`), charging worker
   crashes to the spec's poison counter — a spec that crashes its
   worker ``poison_threshold`` times (in one process life or across
   restarts) lands in ``poisoned`` and is quarantined until pardoned,
5. journals the terminal state (``done``/``error``/``cancelled``/
   ``poisoned``) with the cache key, wall time and hit flag, writes the
   run directory, and bumps the service counters the acceptance tests
   scrape from ``/metrics``.

Admission is bounded: ``workers + queue_depth`` jobs may be live at
once, reserved at submit time and released at the terminal state, so an
overloaded server sheds load with ``429 over_capacity`` (and reports
headroom on ``/readyz``) instead of queueing without limit.

Chaos: with a :class:`~repro.runtime.faults.FaultPlan` (the server's
``--chaos SEED[:SPEC]``) each attempt is armed on ``<kind>:<key[:12]>``
— the spec's cache key, not the random job id, so a fault found under
``--chaos 7`` replays under ``--chaos 7`` across restarts, and rules
glob per analysis kind (``hurst*=exit``).  ``raise``, ``exit`` and
``hang`` land in the worker (a transient failure, a worker crash, a
straggler for the deadline); ``corrupt`` is supervisor-side: it tears
the jobs journal (:func:`repro.util.appendlog.tear`) and runs the
attempt clean.

Concurrency discipline: ``_state`` (a Condition) guards the slot count,
per-job controls and lifecycle flags and is never held across I/O —
journal writes and worker supervision all happen outside it.
The store's own two-lock protocol (see :mod:`repro.service.store`)
covers durability.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import MetricsRegistry, Tracer, TraceWriter, event, reset_tracer, set_tracer, span
from repro.obs import clock as obs_clock
from repro.runtime.cache import ResultCache
from repro.runtime.executor import backoff_delay
from repro.runtime.faults import FaultPlan
from repro.runtime.supervise import supervise
from repro.service.errors import ServiceError
from repro.service.store import TERMINAL_STATES, JobStore
from repro.service.worker import job_worker_main
from repro.util.appendlog import tear
from repro.util.atomicio import atomic_write_bytes, atomic_write_text, create_run_dir, point_latest

__all__ = ["RETRY_AFTER_S", "RUNS_DIR_NAME", "JobRunner"]

#: Per-job run directories live here, inside the service state dir.
RUNS_DIR_NAME = "runs"

#: Backoff between a job's attempts: the first retry waits about
#: ``_BACKOFF_BASE_S``, doubling per attempt up to ``_BACKOFF_CAP_S``.
_BACKOFF_BASE_S = 0.25
_BACKOFF_CAP_S = 8.0

#: The ``Retry-After`` a shed, draining or not-ready answer carries.
RETRY_AFTER_S = 1.0

#: Histogram buckets for job wall time (seconds).
_JOB_BUCKETS = (0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)


class _JobControl:
    """Per-job supervision handle shared by API threads and the supervisor.

    ``claimed`` arbitrates ownership of the terminal write: the
    supervisor claims at pickup; a cancel that arrives first claims
    instead and writes ``cancelled`` itself.  All fields are guarded by
    the runner's ``_state`` lock except ``cancel`` (an Event, safe
    anywhere).
    """

    __slots__ = ("cancel", "claimed")

    def __init__(self) -> None:
        self.cancel = threading.Event()
        self.claimed = False


class JobRunner:
    """Executes journaled analysis jobs: hits inline, the rest in supervised workers."""

    def __init__(
        self,
        store: JobStore,
        metrics: MetricsRegistry,
        writer: TraceWriter,
        *,
        cache_dir: str,
        fingerprint: str,
        workers: int = 4,
        queue_depth: int = 32,
        job_timeout_s: Optional[float] = None,
        job_retries: int = 2,
        poison_threshold: int = 2,
        fault_plan: Optional[FaultPlan] = None,
        before_execute: Optional[Callable[[str], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {queue_depth}")
        if job_retries < 0:
            raise ValueError(f"job_retries must be >= 0, got {job_retries}")
        if poison_threshold < 1:
            raise ValueError(f"poison_threshold must be >= 1, got {poison_threshold}")
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ValueError(f"job_timeout_s must be > 0, got {job_timeout_s}")
        self.store = store
        self.metrics = metrics
        self.writer = writer
        self.cache_dir = cache_dir
        self.fingerprint = fingerprint
        self.workers = workers
        self.queue_depth = queue_depth
        self.capacity = workers + queue_depth
        self.job_timeout_s = job_timeout_s
        self.job_retries = job_retries
        self.poison_threshold = poison_threshold
        self.fault_plan = fault_plan
        #: Test/diagnostic seam: runs in the supervisor before a job starts.
        self.before_execute = before_execute
        self.cache = ResultCache(cache_dir, fingerprint=fingerprint)
        self.runs_dir = os.path.join(store.state_dir, RUNS_DIR_NAME)
        os.makedirs(self.runs_dir, exist_ok=True)
        self._state = threading.Condition()
        self._active = 0
        self._controls: Dict[str, _JobControl] = {}
        self._closed = False
        self._abandoned = False
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-service"
        )

    # -- admission -----------------------------------------------------------

    def reserve(self, *, force: bool = False) -> None:
        """Claim one admission slot or shed the request.

        Called *before* the job is journaled, so an over-capacity POST
        is refused without leaving a record behind.  ``force`` is the
        restart-recovery path: journaled jobs are always readmitted,
        even past capacity — durability outranks backpressure.
        """
        with self._state:
            if self._closed:
                raise ServiceError(
                    "shutting_down",
                    "server is draining; try again later",
                    retry_after=RETRY_AFTER_S,
                )
            if not force and self._active >= self.capacity:
                self.metrics.inc("analyses_shed_total")
                raise ServiceError(
                    "over_capacity",
                    f"all {self.capacity} job slots are taken; retry shortly",
                    retry_after=RETRY_AFTER_S,
                    active=self._active,
                    capacity=self.capacity,
                )
            self._active += 1

    def _release(self, job_id: str) -> None:
        with self._state:
            if self._controls.pop(job_id, None) is not None:
                self._active -= 1
                self._state.notify_all()

    def queue_stats(self) -> Dict[str, int]:
        """Occupancy snapshot for ``/readyz`` and the metrics gauges."""
        with self._state:
            active = self._active
        return {
            "active": active,
            "capacity": self.capacity,
            "headroom": max(0, self.capacity - active),
            "workers": self.workers,
            "queue_depth": self.queue_depth,
        }

    # -- lifecycle -----------------------------------------------------------

    def submit(self, job_id: str) -> None:
        """Queue one already-journaled, already-reserved job for execution."""
        with self._state:
            if self._closed:
                # The journal keeps the job; the next boot recovers it.
                raise ServiceError(
                    "shutting_down",
                    "server is draining; try again later",
                    retry_after=RETRY_AFTER_S,
                )
            self._controls[job_id] = _JobControl()
        self._pool.submit(self._run_job, job_id)

    def recover(self) -> Tuple[int, int]:
        """Re-enqueue unfinished journaled jobs; quarantine repeat killers.

        A job that was ``queued`` when the previous process died is
        resubmitted as-is.  One that was ``running`` took the server
        down with it (or died alongside it) — that counts against its
        spec's poison counter, and a spec that has now crashed
        ``poison_threshold`` times is parked in ``poisoned`` instead of
        being re-enqueued, so one bad upload cannot wedge recovery into
        a crash loop.  Returns ``(resumed, poisoned)``.
        """
        resumed = poisoned = 0
        for record in self.store.jobs():
            status = record.get("status")
            if status not in ("queued", "running"):
                continue
            if status == "running" and record.get("key"):
                count = self.store.record_key_failure(record["key"])
                if count >= self.poison_threshold:
                    self.store.update(
                        record["id"],
                        status="poisoned",
                        finished_ts=round(time.time(), 6),  # repro-lint: disable=REP003 -- journal audit stamp, never in cache identity (REP008-verified)
                        error={
                            "code": "quarantined",
                            "message": f"spec crashed a worker or the server "
                            f"{count} times; quarantined until pardoned",
                            "failures": count,
                        },
                    )
                    self.metrics.inc("analyses_poisoned_total")
                    poisoned += 1
                    continue
            self.store.update(record["id"], status="queued", recovered=True)
            self.reserve(force=True)
            self.submit(record["id"])
            resumed += 1
        return resumed, poisoned

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Client-initiated cancellation: ``DELETE /v1/analyses/{id}``.

        A queued job is cancelled on the spot (its slot frees
        immediately); a running one has its worker SIGKILLed by its
        supervisor, which writes the ``cancelled`` terminal state within
        a tick.  Terminal jobs refuse with ``not_cancellable``.
        """
        record = self.store.get(job_id)
        if record is None:
            raise ServiceError("not_found", f"no job {job_id}", job_id=job_id)
        status = record.get("status")
        if status in TERMINAL_STATES:
            raise ServiceError(
                "not_cancellable",
                f"job {job_id} is already {status}",
                job_id=job_id,
                status=status,
            )
        finish_now = False
        with self._state:
            control = self._controls.get(job_id)
            if control is None:
                # Journaled but not under supervision (e.g. mid-drain):
                # the terminal write is ours.
                finish_now = True
            else:
                control.cancel.set()
                if not control.claimed:
                    control.claimed = True  # supervisor pickup becomes a no-op
                    finish_now = True
        if finish_now:
            record = self.store.update(
                job_id,
                status="cancelled",
                finished_ts=round(time.time(), 6),  # repro-lint: disable=REP003 -- journal audit stamp, never in cache identity (REP008-verified)
            )
            self.metrics.inc("analyses_cancelled_total")
            self._release(job_id)
            return record
        return self.store.get(job_id) or record

    def pardon(self, job_id: str) -> Dict[str, Any]:
        """Pardon and re-enqueue a terminal job: ``POST .../retry``.

        Resets the spec's poison counter (the circuit breaker's manual
        reset), strips the stale terminal fields and resubmits under
        normal admission control.
        """
        record = self.store.get(job_id)
        if record is None:
            raise ServiceError("not_found", f"no job {job_id}", job_id=job_id)
        status = record.get("status")
        if status not in TERMINAL_STATES:
            raise ServiceError(
                "already_in_flight",
                f"job {job_id} is still {status}",
                job_id=job_id,
            )
        self.reserve()
        if record.get("key"):
            self.store.pardon_key(record["key"])
        record = self.store.update(
            job_id,
            status="queued",
            retried=True,
            error=None,
            wall_s=None,
            run_dir=None,
            cache_hit=None,
            finished_ts=None,
            started_ts=None,
        )
        self.metrics.inc("analyses_retried_total")
        self.submit(job_id)
        return record

    def drain(self, *, wait: bool = True, timeout_s: Optional[float] = None) -> List[str]:
        """Stop accepting work and wait for live jobs, bounded by *timeout_s*.

        Returns the ids of jobs still unfinished when the bound expired.
        Their supervisors SIGKILL those jobs' workers within a tick and
        set their records back to ``queued`` (``drain_requeued``) — the
        next boot re-runs them *without* a poison charge, since the
        interruption was ours, not theirs.
        """
        with self._state:
            self._closed = True
        if not wait:
            self._pool.shutdown(wait=False)
            return []
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        with self._state:
            while self._active:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._state.wait(timeout=0.2 if remaining is None else min(0.2, remaining))
            pending = list(self._controls.keys())
            if pending:
                self._abandoned = True
        self._pool.shutdown(wait=True)
        return pending

    # -- execution -----------------------------------------------------------

    def _run_job(self, job_id: str) -> None:
        with self._state:
            control = self._controls.get(job_id)
            if control is None or control.claimed or self._abandoned:
                return  # cancelled before pickup, or draining hard
            control.claimed = True
        record = self.store.get(job_id)
        if record is None:  # pragma: no cover - defensive
            self._release(job_id)
            return
        if self.before_execute is not None:
            self.before_execute(job_id)
        started = time.time()  # repro-lint: disable=REP003 -- journal audit stamp, never in cache identity (REP008-verified)
        t0 = time.monotonic()
        tracer = Tracer(
            self.writer,
            trace_id=self.writer.trace_id,
            parent_id=record.get("request_span_id"),
        )
        token = set_tracer(tracer)
        try:
            self.store.update(job_id, status="running", started_ts=round(started, 6))
            with span(f"job:{job_id}", job=job_id, kind=record.get("kind")) as handle:
                self._supervise(job_id, record, control, handle, t0)
        except Exception as exc:  # pragma: no cover - supervisor must not die silently
            self._finish_error(
                job_id, t0, 1, code="internal", message=f"{type(exc).__name__}: {exc}"
            )
        finally:
            reset_tracer(token)
            self._release(job_id)

    def _supervise(self, job_id: str, record: Dict[str, Any], control: _JobControl, handle, t0: float) -> None:
        """The attempt loop: arm, supervise, classify, retry or finish."""

        def stop() -> Optional[str]:
            if control.cancel.is_set():
                return "cancelled"
            return "abandoned" if self._abandoned else None

        attempt = 0
        while True:
            attempt += 1
            if control.cancel.is_set():
                self._finish_cancelled(job_id, t0, attempt)
                return
            fault = None
            if self.fault_plan is not None:
                fault_id = f"{record.get('kind')}:{str(record.get('key'))[:12]}"
                fault = self.fault_plan.arm(fault_id, attempt)
            if fault is not None and fault.kind == "corrupt":
                # Journal chaos is supervisor-side: tear the jobs journal
                # (a mid-append crash) and run the attempt itself clean.
                tear(self.store.path, f"chaos-tear-{attempt}")
                self.metrics.inc("chaos_journal_tears_total")
                event("chaos_journal_torn", job=job_id, attempt=attempt)
                fault = None
            key = record.get("key")
            if fault is None and key:
                # A hit is answered here; a worker runs only an attempt
                # that computes or carries a fault that must land in one.
                payload = self.cache.get(key)
                if payload is not None:
                    self._finish_done(job_id, record, t0, attempt, handle, True, key, payload)
                    return
            outcome = supervise(
                job_worker_main,
                (self._envelope(record, handle), fault),
                deadline_s=self.job_timeout_s,
                stop=stop,
            )
            report = outcome.value if outcome.kind == "ok" else {}
            if report.get("ok"):
                key = report.get("key")
                payload = self.cache.get(key) if key else None
                self._finish_done(
                    job_id, record, t0, attempt, handle, bool(report.get("hit")), key, payload
                )
                return
            if outcome.kind == "timeout":
                event("job_timeout_kill", job=job_id, attempt=attempt, timeout_s=self.job_timeout_s)
                self.metrics.inc("job_timeouts_total")
                self._finish_error(
                    job_id,
                    t0,
                    attempt,
                    code="timeout",
                    message=f"job exceeded its {self.job_timeout_s:.1f}s limit; "
                    "worker killed at the deadline",
                    elapsed_s=round(outcome.elapsed_s, 3),
                    limit_s=self.job_timeout_s,
                )
                return
            # Our own interruption — a stop, or a failure that raced one —
            # is never charged to the spec's poison counter.
            reason = outcome.reason or stop()
            if reason == "cancelled":
                self._finish_cancelled(job_id, t0, attempt)
                return
            if reason == "abandoned":
                # Drain gave up on us: hand the job to the next boot.
                self.store.update(job_id, status="queued", drain_requeued=True)
                return
            if outcome.kind == "died":
                report = {
                    "code": "job_failed",
                    "message": f"worker process died (exit code {outcome.exitcode})",
                    "transient": True,
                }
                self.metrics.inc("worker_crashes_total")
                if record.get("key"):
                    count = self.store.record_key_failure(record["key"])
                    if count >= self.poison_threshold:
                        self._finish_poisoned(job_id, t0, attempt, count)
                        return
            if not report.get("transient") or attempt > self.job_retries:
                self._finish_error(
                    job_id,
                    t0,
                    attempt,
                    code=report.get("code", "job_failed"),
                    message=report.get("message", "job failed"),
                )
                return
            delay = backoff_delay(job_id, attempt, _BACKOFF_BASE_S, _BACKOFF_CAP_S)
            self.metrics.inc("job_retries_total")
            event(
                "job_retry",
                job=job_id,
                attempt=attempt,
                delay_s=round(delay, 4),
                error=report["message"],
            )
            if control.cancel.wait(delay):
                self._finish_cancelled(job_id, t0, attempt)
                return

    def _envelope(self, record: Dict[str, Any], handle) -> Dict[str, Any]:
        """What one worker attempt needs to know, trace parent included."""
        return {
            "kind": record["kind"],
            "spec": record["spec"],
            "cache_dir": self.cache_dir,
            "fingerprint": self.fingerprint,
            "uploads_dir": self.store.uploads_dir,
            "trace": {
                "path": self.writer.path,
                "trace_id": self.writer.trace_id,
                "parent_span_id": handle.span_id,
            },
        }

    # -- terminal transitions ------------------------------------------------

    def _finish_done(self, job_id, record, t0, attempt, handle, hit, key, payload) -> None:
        elapsed = time.monotonic() - t0
        handle.set(cache_hit=hit)
        run_dir = (
            self._write_run_dir(job_id, record, payload) if payload is not None else None
        )
        self.store.update(
            job_id,
            status="done",
            finished_ts=round(time.time(), 6),  # repro-lint: disable=REP003 -- journal audit stamp, never in cache identity (REP008-verified)
            wall_s=round(elapsed, 6),
            attempts=attempt,
            cache_hit=hit,
            key=key,
            run_dir=run_dir,
        )
        self.metrics.inc("analyses_completed_total")
        self.metrics.inc("analysis_cache_hits_total" if hit else "analysis_compute_total")
        self.metrics.observe("job_seconds", elapsed, buckets=_JOB_BUCKETS)

    def _finish_error(self, job_id, t0, attempt, *, code, message, **extra) -> None:
        elapsed = time.monotonic() - t0
        self.store.update(
            job_id,
            status="error",
            finished_ts=round(time.time(), 6),  # repro-lint: disable=REP003 -- journal audit stamp, never in cache identity (REP008-verified)
            wall_s=round(elapsed, 6),
            attempts=attempt,
            error={"code": code, "message": message, **extra},
        )
        self.metrics.inc("analyses_failed_total")
        self.metrics.observe("job_seconds", elapsed, buckets=_JOB_BUCKETS)

    def _finish_cancelled(self, job_id, t0, attempt) -> None:
        elapsed = time.monotonic() - t0
        self.store.update(
            job_id,
            status="cancelled",
            finished_ts=round(time.time(), 6),  # repro-lint: disable=REP003 -- journal audit stamp, never in cache identity (REP008-verified)
            wall_s=round(elapsed, 6),
            attempts=attempt,
        )
        self.metrics.inc("analyses_cancelled_total")

    def _finish_poisoned(self, job_id, t0, attempt, count) -> None:
        elapsed = time.monotonic() - t0
        self.store.update(
            job_id,
            status="poisoned",
            finished_ts=round(time.time(), 6),  # repro-lint: disable=REP003 -- journal audit stamp, never in cache identity (REP008-verified)
            wall_s=round(elapsed, 6),
            attempts=attempt,
            error={
                "code": "quarantined",
                "message": f"spec crashed its worker {count} times; "
                "quarantined until pardoned via POST .../retry",
                "failures": count,
            },
        )
        self.metrics.inc("analyses_poisoned_total")

    def _write_run_dir(self, job_id: str, record: Dict[str, Any], payload: Dict[str, Any]) -> str:
        """Persist one job's outputs into a fresh stamped run directory.

        Mirrors the CLI runner's ``--out`` layout: a wall-clock stamped
        directory per request plus a ``latest`` link, repointed only once
        the directory's files are written.
        """
        run_dir = create_run_dir(self.runs_dir, f"job-{obs_clock.utc_stamp()}-{job_id[:8]}")
        atomic_write_text(
            os.path.join(run_dir, "result.json"),
            json.dumps(payload, sort_keys=True, indent=2) + "\n",
        )
        artifacts = payload.get("artifacts") or {}
        if "svg" in artifacts:
            atomic_write_bytes(
                os.path.join(run_dir, "result.svg"), artifacts["svg"].encode("utf-8")
            )
        if "csv" in artifacts:
            atomic_write_text(os.path.join(run_dir, "result.csv"), artifacts["csv"])
        atomic_write_text(
            os.path.join(run_dir, "spec.json"),
            json.dumps(record["spec"], sort_keys=True, indent=2) + "\n",
        )
        point_latest(run_dir)
        return run_dir
