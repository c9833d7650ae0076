"""The HTTP application: routing, limits, metrics, and the server glue.

Dependency-free on purpose — ``http.server.ThreadingHTTPServer`` from
the stdlib carries the API, so the service runs anywhere the library
does.  The :class:`ServiceApp` object owns all state (job store, worker
pool, metrics registry, trace writer, runtime cache) and exposes the
API as plain methods; :class:`_Handler` is a thin translation layer
from HTTP requests onto those methods, so every operation is testable
without a socket.

Endpoints (see docs/SERVICE.md for payload schemas):

====================================  =======================================
``POST /v1/analyses``                 submit an analysis; 202 + job id
                                      (429 + ``Retry-After`` when the
                                      bounded queue is full; 410 when the
                                      spec is quarantined)
``GET /v1/analyses``                  list jobs
``GET /v1/analyses/{id}``             poll one job's status
``DELETE /v1/analyses/{id}``          cancel a queued/running job
``POST /v1/analyses/{id}/retry``      pardon + re-enqueue a terminal job
``GET /v1/analyses/{id}/result``      the result payload (``?format=svg``
                                      for the rendered map)
``GET /metrics``                      Prometheus text exposition
``GET /healthz``                      liveness + job counts
``GET /readyz``                       readiness: 200 with queue headroom,
                                      503 + ``Retry-After`` when saturated
                                      or draining
====================================  =======================================

Failures use the uniform error envelope of :mod:`repro.service.errors`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs import TRACE_NAME, MetricsRegistry, Tracer, TraceWriter
from repro.obs import clock as obs_clock
from repro.runtime.cache import ResultCache
from repro.runtime.faults import parse_chaos_spec
from repro.runtime.fingerprint import code_fingerprint
from repro.service.analyses import parse_analysis_request, spec_cache_key
from repro.service.errors import ServiceError
from repro.service.jobs import JobRunner
from repro.service.store import JobStore
from repro.workload.swf import read_swf

__all__ = ["DEFAULT_MAX_BODY_BYTES", "ServiceApp", "make_server"]

#: Default request-body ceiling: generous for real SWF logs, finite.
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024

#: Media types treated as a raw SWF upload body.
_UPLOAD_TYPES = (
    "application/octet-stream",
    "application/x-swf",
    "application/gzip",
    "application/x-gzip",
    "text/plain",
)

#: Fields of a job record exposed over the API, in response order.
_PUBLIC_JOB_FIELDS = (
    "id",
    "status",
    "kind",
    "key",
    "created_ts",
    "started_ts",
    "finished_ts",
    "wall_s",
    "attempts",
    "cache_hit",
    "recovered",
    "retried",
    "drain_requeued",
    "run_dir",
    "error",
    "spec",
)


def _public_job(record: Dict[str, Any]) -> Dict[str, Any]:
    return {k: record[k] for k in _PUBLIC_JOB_FIELDS if k in record}


class ServiceApp:
    """Everything one service process owns, HTTP aside."""

    def __init__(
        self,
        state_dir: str,
        *,
        cache_dir: Optional[str] = None,
        workers: int = 4,
        queue_depth: int = 32,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        job_timeout_s: Optional[float] = None,
        job_retries: int = 2,
        poison_threshold: int = 2,
        chaos: Optional[str] = None,
        before_execute=None,
    ) -> None:
        os.makedirs(state_dir, exist_ok=True)
        self.state_dir = state_dir
        self.cache_dir = cache_dir or os.path.join(state_dir, "cache")
        self.max_body_bytes = int(max_body_bytes)
        self.metrics = MetricsRegistry()
        self.store = JobStore(state_dir)
        self.writer = TraceWriter(os.path.join(state_dir, TRACE_NAME))
        self.tracer = Tracer(self.writer, trace_id=self.writer.trace_id)
        self.fingerprint = code_fingerprint()
        self.cache = ResultCache(self.cache_dir, fingerprint=self.fingerprint)
        self.draining = False
        self._submit_lock = threading.Lock()
        self.runner = JobRunner(
            self.store,
            self.metrics,
            self.writer,
            cache_dir=self.cache_dir,
            fingerprint=self.fingerprint,
            workers=workers,
            queue_depth=queue_depth,
            job_timeout_s=job_timeout_s,
            job_retries=job_retries,
            poison_threshold=poison_threshold,
            fault_plan=parse_chaos_spec(chaos) if chaos else None,
            before_execute=before_execute,
        )
        self.recovered_jobs, self.poisoned_on_boot = self.runner.recover()
        if self.recovered_jobs:
            self.metrics.inc("analyses_recovered_total", self.recovered_jobs)

    # -- API operations ------------------------------------------------------

    def submit(
        self,
        doc: Any,
        *,
        upload_body: Optional[bytes] = None,
        request_span_id: Optional[str] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """Accept one analysis submission; returns ``(status, body)``.

        ``doc`` is the request document (spec + input reference); a raw
        SWF body arrives as *upload_body* and becomes the input.  The
        upload is spooled content-addressed and parse-validated *now*,
        so a malformed log fails the POST with a structured 4xx instead
        of a dead job later.
        """
        if self.draining:
            raise ServiceError("shutting_down", "server is draining; try again later")
        upload_digest = None
        if upload_body is not None:
            if not upload_body.strip():
                raise ServiceError("bad_swf", "empty SWF upload")
            upload_digest = self.store.spool_upload(upload_body)
            try:
                read_swf(self.store.upload_path(upload_digest))
            except ValueError as exc:
                raise ServiceError("bad_swf", f"malformed SWF upload: {exc}") from exc
        spec = parse_analysis_request(doc, upload_digest=upload_digest)
        key = spec_cache_key(spec, self.cache)
        count = self.store.poison_count(key)
        if count >= self.runner.poison_threshold:
            raise ServiceError(
                "quarantined",
                f"this spec crashed its worker {count} times and is "
                "quarantined; pardon it with POST /v1/analyses/{id}/retry",
                failures=count,
            )
        with self._submit_lock:
            existing = self.store.in_flight_for_key(key)
            if existing is not None:
                self.metrics.inc("analyses_deduped_total")
                raise ServiceError(
                    "already_in_flight",
                    f"an identical analysis is already {existing['status']}",
                    job_id=existing["id"],
                )
            # Admission before the journal: an over-capacity POST is shed
            # with 429 here, leaving no orphaned ``queued`` record behind.
            self.runner.reserve()
            job_id = obs_clock.new_id()
            # Queue the journal record only: fsync under the submit lock
            # would serialize every request thread behind the disk
            # (REP012).  The flush below makes it durable before the job
            # is enqueued or the 202 leaves the building.
            self.store.create_deferred(
                job_id,
                kind=spec.kind,
                spec=spec.canonical(),
                key=key,
                request_span_id=request_span_id,
            )
        self.store.flush()
        self.metrics.inc("analyses_submitted_total")
        self.runner.submit(job_id)
        return 202, {
            "job_id": job_id,
            "status": "queued",
            "kind": spec.kind,
            "key": key,
            "links": {
                "status": f"/v1/analyses/{job_id}",
                "result": f"/v1/analyses/{job_id}/result",
            },
        }

    def _job_or_404(self, job_id: str) -> Dict[str, Any]:
        record = self.store.get(job_id)
        if record is None:
            raise ServiceError("not_found", f"no job {job_id}", job_id=job_id)
        return record

    def job_status(self, job_id: str) -> Dict[str, Any]:
        return {"job": _public_job(self._job_or_404(job_id))}

    def list_jobs(self) -> Dict[str, Any]:
        jobs = [_public_job(r) for r in self.store.jobs()]
        for job in jobs:
            job.pop("spec", None)  # keep the listing light
        return {"jobs": jobs, "counts": self.store.counts()}

    def job_result(self, job_id: str) -> Dict[str, Any]:
        """The finished payload, from the runtime cache (run dir fallback)."""
        record = self._job_or_404(job_id)
        status = record.get("status")
        if status in ("queued", "running"):
            raise ServiceError(
                "result_not_ready", f"job {job_id} is {status}", job_id=job_id, status=status
            )
        if status == "cancelled":
            raise ServiceError(
                "job_cancelled", f"job {job_id} was cancelled", job_id=job_id
            )
        if status == "poisoned":
            error = record.get("error") or {}
            raise ServiceError(
                "quarantined",
                error.get("message", "spec quarantined after repeated crashes"),
                job_id=job_id,
                job_error=error,
            )
        if status == "error":
            error = record.get("error") or {}
            if error.get("code") == "timeout":
                raise ServiceError(
                    "timeout",
                    error.get("message", "job timed out"),
                    job_id=job_id,
                    elapsed_s=error.get("elapsed_s"),
                    limit_s=error.get("limit_s"),
                )
            raise ServiceError(
                "job_failed",
                error.get("message", "job failed"),
                job_id=job_id,
                job_error=error,
            )
        payload = self.cache.get(record["key"]) if record.get("key") else None
        if payload is None:
            payload = self._run_dir_result(record)
        if payload is None:
            raise ServiceError(
                "result_evicted",
                f"job {job_id} finished but its cached result is gone",
                job_id=job_id,
            )
        return payload

    @staticmethod
    def _run_dir_result(record: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        run_dir = record.get("run_dir")
        if not run_dir:
            return None
        try:
            with open(os.path.join(run_dir, "result.json"), "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def job_result_svg(self, job_id: str) -> bytes:
        payload = self.job_result(job_id)
        svg = (payload.get("artifacts") or {}).get("svg")
        if not svg:
            raise ServiceError(
                "no_svg", f"job {job_id} produced no map rendering", job_id=job_id
            )
        return svg.encode("utf-8")

    def cancel_job(self, job_id: str) -> Dict[str, Any]:
        """``DELETE /v1/analyses/{id}``: cancel a queued or running job."""
        return {"job": _public_job(self.runner.cancel(job_id))}

    def retry_job(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        """``POST /v1/analyses/{id}/retry``: pardon + re-enqueue a terminal job."""
        if self.draining:
            raise ServiceError("shutting_down", "server is draining; try again later")
        record = self.runner.pardon(job_id)
        return 202, {
            "job_id": job_id,
            "status": record.get("status", "queued"),
            "kind": record.get("kind"),
            "key": record.get("key"),
            "links": {
                "status": f"/v1/analyses/{job_id}",
                "result": f"/v1/analyses/{job_id}/result",
            },
        }

    def health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.draining else "ok",
            "jobs": self.store.counts(),
            "recovered_jobs": self.recovered_jobs,
            "poisoned_on_boot": self.poisoned_on_boot,
            "trace_id": self.writer.trace_id,
        }

    def ready(self) -> Dict[str, Any]:
        """``GET /readyz``: can this server take a submission *right now*?

        Liveness (``/healthz``) answers "is the process up"; readiness
        answers "should the load balancer route to it" — no while
        draining, no while the bounded queue has no headroom.
        """
        stats = self.runner.queue_stats()
        if self.draining:
            raise ServiceError(
                "not_ready",
                "server is draining",
                retry_after=self.runner.retry_after_s,
                **stats,
            )
        if stats["headroom"] <= 0:
            raise ServiceError(
                "not_ready",
                f"all {stats['capacity']} job slots are taken",
                retry_after=self.runner.retry_after_s,
                **stats,
            )
        return {"status": "ready", **stats}

    def prometheus(self) -> str:
        counts = self.store.counts()
        for state, value in counts.items():
            self.metrics.set_gauge(f"jobs_{state}", value)
        stats = self.runner.queue_stats()
        self.metrics.set_gauge("queue_active", stats["active"])
        self.metrics.set_gauge("queue_capacity", stats["capacity"])
        self.metrics.set_gauge("queue_headroom", stats["headroom"])
        return self.metrics.to_prometheus(prefix="repro_service_")

    def close(self, *, wait: bool = True, drain_timeout_s: Optional[float] = None) -> List[str]:
        """Drain: refuse new submissions, finish live jobs within the bound.

        Returns the ids of jobs still pending when *drain_timeout_s*
        expired (empty on a clean drain); those are requeued in the
        journal for the next boot.
        """
        self.draining = True
        return self.runner.drain(wait=wait, timeout_s=drain_timeout_s)


# -- the HTTP translation layer ----------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto a :class:`ServiceApp` (class attr ``app``)."""

    app: ServiceApp  # injected by make_server
    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"

    # The access log is covered by metrics + trace; keep stderr quiet.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._handle("DELETE")

    # -- plumbing ------------------------------------------------------------

    def _handle(self, method: str) -> None:
        split = urlsplit(self.path)
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        endpoint = self._endpoint(method, split.path)
        t0 = time.monotonic()
        status = 500
        headers: Dict[str, str] = {}
        with self.app.tracer.span(
            "http.request", method=method, path=split.path, endpoint=endpoint
        ) as handle:
            try:
                status, body, content_type = self._route(
                    method, split.path, query, handle.span_id
                )
            except ServiceError as err:
                status, body, content_type = err.status, err.body(), "application/json"
                headers = err.headers()
            except Exception as exc:  # noqa: BLE001 - uniform 500 envelope
                err = ServiceError("internal", f"{type(exc).__name__}: {exc}")
                status, body, content_type = err.status, err.body(), "application/json"
            handle.set(http_status=status)
        elapsed = time.monotonic() - t0
        metrics = self.app.metrics
        metrics.inc("http_requests_total")
        metrics.inc(f"http_requests_{endpoint}_total")
        if status >= 400:
            metrics.inc(f"http_errors_{endpoint}_total")
        metrics.observe(f"http_request_seconds_{endpoint}", elapsed)
        self._respond(status, body, content_type, headers)

    @staticmethod
    def _endpoint(method: str, path: str) -> str:
        """A low-cardinality label for per-endpoint metrics."""
        parts = [p for p in path.split("/") if p]
        if parts[:2] == ["v1", "analyses"]:
            if len(parts) == 2:
                return "analyses_submit" if method == "POST" else "analyses_list"
            if len(parts) == 3:
                return "analyses_cancel" if method == "DELETE" else "analyses_status"
            if len(parts) == 4 and parts[3] == "result":
                return "analyses_result"
            if len(parts) == 4 and parts[3] == "retry":
                return "analyses_retry"
        if path == "/metrics":
            return "metrics"
        if path == "/healthz":
            return "healthz"
        if path == "/readyz":
            return "readyz"
        return "other"

    def _route(
        self, method: str, path: str, query: Dict[str, str], span_id: str
    ) -> Tuple[int, Any, str]:
        app = self.app
        parts = [p for p in path.split("/") if p]
        if parts[:2] == ["v1", "analyses"]:
            if len(parts) == 2:
                if method == "POST":
                    doc, upload = self._submission_body(query)
                    status, body = app.submit(
                        doc, upload_body=upload, request_span_id=span_id
                    )
                    return status, body, "application/json"
                if method == "GET":
                    return 200, app.list_jobs(), "application/json"
                raise ServiceError("method_not_allowed", f"{method} not allowed here")
            if len(parts) == 3:
                if method == "DELETE":
                    return 200, app.cancel_job(parts[2]), "application/json"
                self._require_get(method)
                return 200, app.job_status(parts[2]), "application/json"
            if len(parts) == 4 and parts[3] == "result":
                self._require_get(method)
                if query.get("format") == "svg":
                    return 200, app.job_result_svg(parts[2]), "image/svg+xml"
                return 200, app.job_result(parts[2]), "application/json"
            if len(parts) == 4 and parts[3] == "retry":
                if method != "POST":
                    raise ServiceError("method_not_allowed", f"{method} not allowed here")
                status, body = app.retry_job(parts[2])
                return status, body, "application/json"
            raise ServiceError("not_found", f"no route {path}")
        if path == "/metrics":
            self._require_get(method)
            return 200, app.prometheus(), "text/plain; version=0.0.4"
        if path == "/healthz":
            self._require_get(method)
            return 200, app.health(), "application/json"
        if path == "/readyz":
            self._require_get(method)
            return 200, app.ready(), "application/json"
        raise ServiceError("not_found", f"no route {path}")

    @staticmethod
    def _require_get(method: str) -> None:
        if method != "GET":
            raise ServiceError("method_not_allowed", f"{method} not allowed here")

    def _submission_body(self, query: Dict[str, str]) -> Tuple[Any, Optional[bytes]]:
        """Read and classify a POST body: JSON document or raw SWF upload."""
        body = self._read_body()
        content_type = (self.headers.get("Content-Type") or "").split(";")[0].strip().lower()
        if content_type in ("application/json", ""):
            try:
                return json.loads(body.decode("utf-8")), None
            except (ValueError, UnicodeDecodeError) as exc:
                raise ServiceError("invalid_json", f"request body is not JSON: {exc}") from exc
        if content_type in _UPLOAD_TYPES:
            doc: Any = {}
            if "spec" in query:
                try:
                    doc = json.loads(query["spec"])
                except ValueError as exc:
                    raise ServiceError(
                        "invalid_json", f"'spec' query parameter is not JSON: {exc}"
                    ) from exc
            elif "kind" in query:
                doc = {"kind": query["kind"]}
            return doc, body
        raise ServiceError(
            "unsupported_media_type",
            f"cannot handle Content-Type {content_type!r}; "
            "use application/json or application/octet-stream",
        )

    def _read_body(self) -> bytes:
        length = self.headers.get("Content-Length")
        if length is None:
            raise ServiceError(
                "length_required", "POST requires a Content-Length header"
            )
        try:
            n = int(length)
        except ValueError:
            raise ServiceError("length_required", f"bad Content-Length {length!r}") from None
        if n > self.app.max_body_bytes:
            # Refuse without reading; the connection is closed after the
            # response so the unread body can't poison keep-alive.
            self.close_connection = True
            raise ServiceError(
                "payload_too_large",
                f"body of {n} bytes exceeds the {self.app.max_body_bytes} byte limit",
                limit=self.app.max_body_bytes,
            )
        return self.rfile.read(n)

    def _respond(
        self,
        status: int,
        body: Any,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        if isinstance(body, bytes):
            data = body
        elif isinstance(body, str):
            data = body.encode("utf-8")
        else:
            data = (json.dumps(body, sort_keys=True, indent=2) + "\n").encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            if self.close_connection:
                self.send_header("Connection", "close")
            # end_headers() would send the head on its own, and Nagle
            # would then hold the body until the client's delayed ACK
            # (~40 ms per response on a kept-alive connection): queue the
            # body behind the head and send both in one write.
            self._headers_buffer.append(b"\r\n" + data)
            self.flush_headers()
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass


def make_server(app: ServiceApp, host: str = "127.0.0.1", port: int = 0) -> ThreadingHTTPServer:
    """A ready-to-serve threading HTTP server bound to *app*.

    ``port=0`` binds an ephemeral port; read the real one off
    ``server.server_address``.
    """
    handler = type("BoundHandler", (_Handler,), {"app": app})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server
