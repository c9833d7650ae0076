"""Scripted end-to-end smoke check: ``python -m repro.service.smoke``.

Boots a real service (sockets and all) on an ephemeral port, then
drives it with :mod:`urllib` exactly the way a client would:

1. upload a rendered SWF log and run a co-plot analysis on it,
2. poll the job to completion and fetch the JSON payload and SVG map,
3. submit the *identical* analysis again and prove — via the service's
   own ``/metrics`` — that it resolved from the runtime cache
   (``analysis_cache_hits_total`` moved, ``analysis_compute_total``
   did not), and — via ``<state-dir>/trace.jsonl`` — that the hit
   started no worker: its ``job:<id>`` span has no worker-side
   ``task:service.*`` child, while the first job's (the miss) has one,
4. check the structured 4xx contract on a malformed upload,
5. scrape ``/metrics`` and ``/healthz``.

Exits nonzero on the first broken invariant; ``make service-smoke``
wires this into CI.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import tempfile
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

from repro.archive.synthesize import synthesize_workload
from repro.obs import TRACE_NAME, read_trace
from repro.service.app import ServiceApp, make_server
from repro.workload.swf import render_swf_text

__all__ = ["main", "run_smoke"]

_POLL_INTERVAL_S = 0.05


def _request(
    url: str,
    data: Optional[bytes] = None,
    *,
    content_type: str = "application/json",
    timeout: float = 30.0,
) -> Tuple[int, bytes, str]:
    req = urllib.request.Request(url, data=data)
    if data is not None:
        req.add_header("Content-Type", content_type)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read(), resp.headers.get("Content-Type", "")
    except urllib.error.HTTPError as err:
        return err.code, err.read(), err.headers.get("Content-Type", "")


def _poll_done(base: str, job_id: str, *, timeout_s: float) -> Dict[str, Any]:
    deadline = time.monotonic() + timeout_s
    while True:
        status, body, _ = _request(f"{base}/v1/analyses/{job_id}")
        if status != 200:
            raise AssertionError(f"status poll returned HTTP {status}: {body[:200]!r}")
        job = json.loads(body)["job"]
        if job["status"] in ("done", "error"):
            return job
        if time.monotonic() > deadline:
            raise AssertionError(f"job {job_id} still {job['status']} after {timeout_s}s")
        time.sleep(_POLL_INTERVAL_S)


def _metric(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(f"repro_service_{name} "):
            return float(line.split()[-1])
    return 0.0


def _worker_spans(trace_path: str, job_id: str, *, timeout_s: float) -> Optional[List[str]]:
    """Names of the worker-side ``task:service.*`` spans under a job's span.

    ``None`` if the ``job:<id>`` span never reaches the trace: the
    supervisor closes it just after journaling the terminal state, so a
    poll that saw ``done`` may read the trace a moment early.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        spans = read_trace(trace_path).spans
        job = next((s for s in spans if s.get("name") == f"job:{job_id}"), None)
        if job is not None:
            return [
                s["name"]
                for s in spans
                if s.get("parent_id") == job["span_id"]
                and str(s.get("name")).startswith("task:service.")
            ]
        if time.monotonic() > deadline:
            return None
        time.sleep(_POLL_INTERVAL_S)


def run_smoke(base: str, state_dir: str, *, timeout_s: float = 120.0) -> List[str]:
    """Drive one smoke pass against the service at *base*, whose state
    lives in *state_dir*; returns failure messages."""
    failures: List[str] = []

    def check(ok: bool, what: str) -> bool:
        print(("PASS" if ok else "FAIL") + f" {what}", flush=True)
        if not ok:
            failures.append(what)
        return ok

    swf = render_swf_text(synthesize_workload("CTC", n_jobs=400, seed=7)).encode()
    spec = {
        "kind": "coplot",
        "params": {"label": "SMOKE", "seed": 0, "n_init": 2},
    }
    spec_q = urllib.parse.quote(json.dumps(spec))

    # 1. gzip upload + submit
    status, body, _ = _request(
        f"{base}/v1/analyses?spec={spec_q}",
        gzip.compress(swf),
        content_type="application/octet-stream",
    )
    submit = json.loads(body)
    if not check(status == 202 and "job_id" in submit, "submit upload -> 202 + job id"):
        return failures

    # 2. poll to done, fetch JSON + SVG
    job = _poll_done(base, submit["job_id"], timeout_s=timeout_s)
    check(job["status"] == "done", f"job reaches done (got {job['status']}: {job.get('error')})")
    status, body, ctype = _request(f"{base}/v1/analyses/{submit['job_id']}/result")
    payload = json.loads(body) if status == 200 else {}
    check(
        status == 200 and payload.get("kind") == "coplot" and "map" in payload,
        "result JSON has the co-plot map",
    )
    status, body, ctype = _request(f"{base}/v1/analyses/{submit['job_id']}/result?format=svg")
    check(
        status == 200 and "svg" in ctype and body.lstrip().startswith(b"<svg"),
        "result SVG renders",
    )

    # 3. identical resubmission resolves from the runtime cache
    _, before, _ = _request(f"{base}/metrics")
    before_text = before.decode()
    status, body, _ = _request(
        f"{base}/v1/analyses?spec={spec_q}",
        swf,  # plain bytes this time: same digest, same key
        content_type="application/octet-stream",
    )
    check(status == 202, "identical resubmission accepted")
    job2 = _poll_done(base, json.loads(body)["job_id"], timeout_s=timeout_s)
    check(job2.get("cache_hit") is True, "resubmission is a cache hit")
    _, after, _ = _request(f"{base}/metrics")
    after_text = after.decode()
    check(
        _metric(after_text, "analysis_cache_hits_total")
        > _metric(before_text, "analysis_cache_hits_total"),
        "cache-hit counter incremented",
    )
    check(
        _metric(after_text, "analysis_compute_total")
        == _metric(before_text, "analysis_compute_total"),
        "compute counter unchanged (no recompute)",
    )
    trace_path = os.path.join(state_dir, TRACE_NAME)
    miss = _worker_spans(trace_path, submit["job_id"], timeout_s=timeout_s)
    check(
        miss is not None and len(miss) == 1,
        f"the miss computed in a worker (task:service.* spans under its job: {miss})",
    )
    hit = _worker_spans(trace_path, job2["id"], timeout_s=timeout_s)
    check(hit == [], f"the hit started no worker (task:service.* spans under its job: {hit})")

    # 4. structured errors
    status, body, _ = _request(
        f"{base}/v1/analyses?kind=coplot",
        b"this is not an SWF log\nnot even close\n",
        content_type="application/octet-stream",
    )
    err = json.loads(body).get("error", {})
    check(
        status == 400 and err.get("code") == "bad_swf",
        f"malformed SWF -> 400 bad_swf (got {status} {err.get('code')})",
    )

    # 5. health, readiness + metrics shape
    status, body, _ = _request(f"{base}/healthz")
    health = json.loads(body)
    check(status == 200 and health.get("status") == "ok", "healthz reports ok")
    status, body, _ = _request(f"{base}/readyz")
    ready = json.loads(body)
    check(
        status == 200 and ready.get("status") == "ready" and ready.get("headroom", 0) > 0,
        "readyz reports ready with queue headroom",
    )
    check("repro_service_http_requests_total" in after_text, "metrics expose HTTP counters")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.smoke",
        description="Boot the service on an ephemeral port and smoke-test it.",
    )
    parser.add_argument("--state-dir", default=None, help="keep state here (default: temp dir)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--timeout-s", type=float, default=120.0)
    args = parser.parse_args(argv)

    state_dir = args.state_dir or tempfile.mkdtemp(prefix="repro-service-smoke-")
    app = ServiceApp(state_dir, workers=args.workers)
    server = make_server(app, "127.0.0.1", 0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"smoke: service on http://{host}:{port} (state={state_dir})", flush=True)
    try:
        failures = run_smoke(f"http://{host}:{port}", state_dir, timeout_s=args.timeout_s)
    finally:
        server.shutdown()
        server.server_close()
        app.close(wait=True)
        if args.state_dir is None:
            shutil.rmtree(state_dir, ignore_errors=True)
    if failures:
        print(f"smoke: {len(failures)} check(s) failed", flush=True)
        return 1
    print("smoke: all checks passed", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
