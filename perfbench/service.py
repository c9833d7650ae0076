"""The service workloads, driven over HTTP: ``service-hot`` and ``service-cold``.

Both boot ``python -m repro.service`` on a fresh state directory and run
two closed-loop clients (the main thread and one more, each with at most
one connection open) for the run's seconds.  A client sends its next request
only after the previous one's result body has arrived, and polls job
status every :data:`POLL_S` seconds in between.

* ``service-hot``: each client cycles through its own disjoint set of
  small specs whose results were put in the cache during set-up, so
  every analysis is a cache hit and the latency is service plumbing.
* ``service-cold``: the clients share one seeded sequence of distinct
  specs in four equal classes (see ``inputs.py``); every analysis
  computes and publishes.

Every payload is checked against ``compute_analysis`` run in this
process on the same spec, and the ``/metrics`` counters against the
workload's design.  The traced run adds the ``service.*`` phases (from
the client clock, the public job fields, ``/metrics`` and the state
directory) and replays the same specs in-process with the layer entry
points wrapped.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import shutil
import signal
import subprocess
import threading
import time
import urllib.parse
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import inputs
import layers
from common import (
    child_env,
    children_peak_rss_mb,
    cpu_times,
    fresh_dir,
    import_seconds,
    median,
    ms,
    process_tree_cpu_s,
    python,
    steal_share,
    tail,
)

#: Seconds between job-status polls, the same for both workloads.
POLL_S = 0.005
#: Closed-loop clients.
CLIENTS = 2
#: Server set-ups per untraced run, the timed server's own included.
BOOTS = 3
#: Cold requests the traced run replays in-process: a fixed prefix, 4 per class.
REPLAY_COLD = 16
#: A job not finished after this long fails the run instead of hanging it.
JOB_DEADLINE_S = 90.0
#: Cold requests generated per second of run time, far beyond today's rate.
COLD_REQUESTS_PER_S = 25

_TERMINAL = ("done", "error", "cancelled", "poisoned")

#: ``/metrics`` counters recorded with every service result.
_COUNTERS = (
    "analyses_submitted_total",
    "analyses_completed_total",
    "analysis_cache_hits_total",
    "analysis_compute_total",
    "analyses_deduped_total",
    "analyses_shed_total",
    "job_retries_total",
)

Source = Callable[[], Optional[Dict[str, Any]]]


def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Any = None,
    content_type: Optional[str] = None,
) -> Tuple[int, bytes]:
    """One HTTP request on its own connection, as ``urllib`` would send it.

    A fresh connection per request keeps TCP's delayed acknowledgements
    out of the numbers: on a kept-alive connection each response the
    service writes in two parts waits for the client's delayed ACK.
    """
    conn = http.client.HTTPConnection(host, port, timeout=JOB_DEADLINE_S)
    try:
        headers = {"Content-Type": content_type} if content_type else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class Server:
    """One ``python -m repro.service`` process on an ephemeral port.

    Set-up runs from the launch until ``/readyz`` first answers 200:
    ``setup_s`` is its wall time, ``setup_cpu_s`` the CPU time the
    server spent on it.
    """

    def __init__(self, state_dir: Path, cache_dir: Path, tmp: Path) -> None:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                python(), "-m", "repro.service", "--host", "127.0.0.1", "--port", "0",
                "--state-dir", str(state_dir), "--cache-dir", str(cache_dir),
            ],
            stdout=subprocess.PIPE,
            env=child_env(tmp),
            cwd=str(tmp),
        )
        try:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if "http://" not in line:
                raise RuntimeError(f"service did not start: {line.strip()!r}")
            host, port = line.split("http://", 1)[1].split()[0].rsplit(":", 1)
            self.host, self.port = host, int(port)
            while True:
                try:
                    status = http_request(self.host, self.port, "GET", "/readyz")[0]
                except OSError:
                    status = 0
                if status == 200:
                    break
                if self.proc.poll() is not None or time.perf_counter() - t0 > 60:
                    raise RuntimeError("service never became ready")
                time.sleep(0.002)
            self.setup_s = time.perf_counter() - t0
            self.setup_cpu_s = self.cpu_s()
        except BaseException:
            self.stop(kill=True)
            raise

    def stop(self, *, kill: bool = False) -> None:
        """SIGTERM (the graceful drain), or SIGKILL, and wait for the exit."""
        if self.proc.poll() is None:
            if kill:
                self.proc.kill()
            else:
                self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()

    def cpu_s(self) -> float:
        """CPU seconds of the server, its threads and its reaped workers."""
        return process_tree_cpu_s(self.proc.pid)

    def http(self, method: str, path: str, body: Any = None, content_type: Optional[str] = None):
        return http_request(self.host, self.port, method, path, body, content_type)

    def counters(self) -> Dict[str, float]:
        """The ``repro_service_*`` samples of ``/metrics``, unprefixed."""
        status, body = self.http("GET", "/metrics")
        out: Dict[str, float] = {}
        if status != 200:
            return out
        for line in body.decode().splitlines():
            name, _, value = line.rpartition(" ")
            if name.startswith("repro_service_"):
                try:
                    out[name[len("repro_service_"):]] = float(value)
                except ValueError:
                    pass
        return out


# -- one analysis ---------------------------------------------------------------


def analyse(server: "Server", req: Dict[str, Any]) -> Dict[str, Any]:
    """Submit, poll to a terminal state and fetch the result (times in seconds)."""
    rec: Dict[str, Any] = {"class": req["class"], "index": req["index"], "ok": False}
    try:
        return _analyse(server, req, rec)
    except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
        rec.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        return rec


def _analyse(server: "Server", req: Dict[str, Any], rec: Dict[str, Any]) -> Dict[str, Any]:
    t0 = rec["start"] = time.perf_counter()
    if "upload" in req:
        spec = urllib.parse.quote(json.dumps(req["doc"], sort_keys=True))
        status, body = server.http(
            "POST", f"/v1/analyses?spec={spec}", req["upload"], "application/octet-stream"
        )
    else:
        status, body = server.http(
            "POST", "/v1/analyses", json.dumps(req["doc"]).encode(), "application/json"
        )
    rec["submit_s"] = time.perf_counter() - t0
    rec["http_submit"] = status
    if status != 202:
        rec["error"] = f"submit HTTP {status}: {body[:160]!r}"
        return rec
    job_id = json.loads(body)["job_id"]
    polls = 0
    while True:
        time.sleep(POLL_S)
        status, body = server.http("GET", f"/v1/analyses/{job_id}")
        polls += 1
        if status != 200:
            rec["error"] = f"status poll HTTP {status}"
            return rec
        job = json.loads(body)["job"]
        if job["status"] in _TERMINAL:
            break
        if time.perf_counter() - t0 > JOB_DEADLINE_S:
            rec["error"] = f"job still {job['status']} after {JOB_DEADLINE_S:.0f}s"
            return rec
    seen_wall, seen = time.time(), time.perf_counter()
    rec.update(polls=polls, attempts=job.get("attempts"), cache_hit=job.get("cache_hit"))
    if job["status"] != "done":
        rec["error"] = f"job {job['status']}: {job.get('error')}"
        return rec
    rec["done"] = True
    status, body = server.http("GET", f"/v1/analyses/{job_id}/result")
    done = time.perf_counter()
    if status != 200:
        rec["error"] = f"result HTTP {status}"
        return rec
    rec.update(
        ok=True,
        body=body,
        latency_s=done - t0,
        result_s=done - seen,
        notice_s=seen_wall - job["finished_ts"],
        queue_s=job["started_ts"] - job["created_ts"],
        run_s=job["wall_s"],
        finish_s=job["finished_ts"] - job["started_ts"] - job["wall_s"],
    )
    return rec


def drive(server: Server, sources: List[Source], seconds: float):
    """One closed-loop client per source until *seconds* have passed.

    Client 0 runs on the calling thread, the others on one thread each.
    Requests in flight at the deadline finish and count.
    """
    records: List[List[Dict[str, Any]]] = [[] for _ in sources]
    start = time.perf_counter()
    deadline = start + seconds

    def loop(i: int) -> None:
        while time.perf_counter() < deadline:
            req = sources[i]()
            if req is None:
                break
            records[i].append(analyse(server, req))

    helpers = [threading.Thread(target=loop, args=(i,)) for i in range(1, len(sources))]
    for thread in helpers:
        thread.start()
    try:
        loop(0)
    finally:
        for thread in helpers:
            thread.join()
    return [r for per_client in records for r in per_client], time.perf_counter() - start


# -- the program in this process ------------------------------------------------


def canonical(payload: Any) -> str:
    """JSON text that is equal for two payloads exactly when they are JSON-equal."""
    return json.dumps(payload, sort_keys=True)



class InProcess:
    """``compute_analysis`` in this process: expected payloads and the replay."""

    def __init__(self, work: Path) -> None:
        from repro.runtime.fingerprint import code_fingerprint
        from repro.service import analyses

        self._analyses = analyses
        self._fingerprint = code_fingerprint()
        self._uploads = fresh_dir(work / "inprocess-uploads")

    def compute(self, req: Dict[str, Any], cache_dir: Path) -> str:
        """The payload for *req*'s spec, as canonical JSON."""
        digest = path = None
        if "upload" in req:
            body = bytes(req["upload"])
            digest = inputs.upload_digest(body)
            path = self._uploads / f"{digest}.swf"
            path.write_bytes(body)
        try:
            spec = self._analyses.parse_analysis_request(req["doc"], upload_digest=digest)
            payload, _hit, _key = self._analyses.compute_analysis(
                spec,
                cache_dir=str(cache_dir),
                fingerprint=self._fingerprint,
                uploads_dir=str(self._uploads),
            )
        finally:
            if path is not None:
                path.unlink()
        return canonical(payload)


def _replay(
    hot: bool,
    requests: List[Dict[str, Any]],
    program: InProcess,
    work: Path,
    cache: Path,
    out: Path,
) -> Dict[str, float]:
    """Replay *requests* untraced, then traced; per-layer metrics from the spans.

    Cold replays start from an empty cache each time, hot ones read the
    filled cache.  ``trace.overhead_s`` is the traced minus the untraced
    replay time.
    """

    def once(cache_dir: Path) -> float:
        t0 = time.perf_counter()
        for req in requests:
            program.compute(req, cache_dir)
        return time.perf_counter() - t0

    untraced_s = once(cache if hot else fresh_dir(work / "replay-untraced"))
    recorder = layers.SpanRecorder()
    layers.install(recorder)
    traced_s = once(cache if hot else fresh_dir(work / "replay-traced"))
    recorder.dump(str(out / "spans.jsonl"))
    metrics = layers.layer_metrics(layers.recorded(recorder))
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return metrics


# -- workloads -------------------------------------------------------------------


def _requests(hot: bool, seed: int, seconds: float):
    """(every distinct request, one request source per client)."""
    if hot:
        per_client: List[List[Dict[str, Any]]] = []
        for specs in inputs.hot_sets(seed, CLIENTS):
            base = sum(len(reqs) for reqs in per_client)
            per_client.append(
                [
                    {"class": f"hot-{doc['kind']}", "index": base + j, "doc": doc}
                    for j, doc in enumerate(specs)
                ]
            )
        sources: List[Source] = [_cycle(reqs) for reqs in per_client]
        return [r for reqs in per_client for r in reqs], sources
    sequence = inputs.cold_sequence(seed, max(64, int(COLD_REQUESTS_PER_S * seconds)))
    logs = inputs.UploadLogs(seed, sequence)
    for req in sequence:
        if "log_jobs" in req:
            req["upload"] = logs.body(req)
    return sequence, [_shared(sequence)] * CLIENTS


def _cycle(reqs: List[Dict[str, Any]]) -> Source:
    it = itertools.cycle(reqs)
    return lambda: next(it)


def _shared(reqs: List[Dict[str, Any]]) -> Source:
    lock = threading.Lock()
    it = iter(reqs)

    def take() -> Optional[Dict[str, Any]]:
        with lock:
            return next(it, None)

    return take


def _dir_kb(path: Path) -> float:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            total += os.lstat(os.path.join(dirpath, name)).st_size
    return total / 1024.0


def _lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _p50_ms(records: List[Dict[str, Any]], field: str) -> float:
    return median([ms(r[field]) for r in records]) if records else 0.0


def run(workload: str, seed: int, seconds: float, traced: bool, out: Path) -> Dict[str, Any]:
    work = fresh_dir(out / "work")
    try:
        return _run(workload == "service-hot", seed, seconds, traced, out, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(hot: bool, seed: int, seconds: float, traced: bool, out: Path, work: Path):
    tmp = fresh_dir(work / "tmp")
    cache = work / "cache"
    requests, sources = _requests(hot, seed, seconds)
    with open(out / "requests.jsonl", "w", encoding="utf-8") as fh:
        fh.write("\n".join(inputs.describe(requests)) + "\n")
    program = InProcess(work)
    expected: Dict[int, str] = {}
    if hot:  # the set-up payloads: this fills the cache the hot server reads
        for req in requests:
            expected[req["index"]] = program.compute(req, cache)

    servers: List[Server] = []
    if not traced:
        for b in range(BOOTS - 1):
            servers.append(Server(fresh_dir(work / f"boot{b}"), cache, tmp))
            servers[-1].stop()
    state = fresh_dir(work / "state")
    server = Server(state, cache, tmp)
    servers.append(server)
    try:
        before, cpu0 = cpu_times(), server.cpu_s()
        records, window_s = drive(server, sources, seconds)
        # Every finished job's worker is reaped before the job reads done,
        # so the workers' CPU is in the server's tree by now.
        window_cpu_s = server.cpu_s() - cpu0
        steal = steal_share(before, cpu_times())
        counters = server.counters()
    finally:
        server.stop()

    # Correctness: each analysis done, 200, and equal to compute_analysis here.
    verify_cache = fresh_dir(work / "verify-cache")
    by_index = {req["index"]: req for req in requests}
    for rec in records:
        if not rec["ok"]:
            continue
        got = canonical(json.loads(rec.pop("body")))
        idx = rec["index"]
        if idx not in expected:
            expected[idx] = program.compute(by_index[idx], verify_cache)
        if got != expected[idx]:
            rec.update(ok=False, error="payload differs from compute_analysis in-process")
        elif rec["cache_hit"] is not hot:
            rec.update(ok=False, error=f"job cache_hit is {rec['cache_hit']}")
    ok = [r for r in records if r["ok"]]
    done = sum(1 for r in records if r.get("done"))
    hits = counters.get("analysis_cache_hits_total", 0.0)
    computes = counters.get("analysis_compute_total", 0.0)
    counters_ok = (hits, computes) == ((done, 0) if hot else (0, done))
    rejected = sum(1 for r in records if r.get("http_submit") in (409, 429))
    failed = len(records) - len(ok)

    latencies = [ms(r["latency_s"]) for r in ok]
    wall = {
        "wall.setup_s": median([srv.setup_s for srv in servers]),
        "wall.analyses_per_s": len(ok) / window_s,
        "wall.latency_p50_ms": median(latencies) if latencies else math.nan,
        "wall.latency_tail_ms": tail(latencies)["value"],
    }
    result: Dict[str, Any] = {
        "correct": failed == 0 and counters_ok and len(ok) > 0,
        "attempted": max(1, len(records)),
        "failed": failed,
        "detail": {
            "window_s": window_s,
            "window_cpu_s": window_cpu_s,
            "host_steal_share": steal,
            "completed": len(ok),
            "setup_cpu_samples_s": [srv.setup_cpu_s for srv in servers],
            "setup_wall_samples_s": [srv.setup_s for srv in servers],
            "latency_tail": tail(latencies),
            "p50_ms_by_class": {
                cls: median([ms(r["latency_s"]) for r in ok if r["class"] == cls])
                for cls in sorted({r["class"] for r in ok})
            },
            "counters": {k: counters.get(k) for k in _COUNTERS},
            "counters_match_design": counters_ok,
            "rejected": rejected,
            "errors": sorted({r["error"] for r in records if "error" in r})[:10],
        },
        "settings": {
            "poll_interval_s": POLL_S,
            "clients": CLIENTS,
            "server_boots": 1 if traced else BOOTS,
            "requests_per_class": dict(Counter(r["class"] for r in records)),
        },
        "dirs": {"state": state, "cache": cache},
        "wall": wall,
    }
    if not traced:
        result["metrics"] = {
            "setup_s": median([srv.setup_cpu_s for srv in servers]),
            "cpu_ms_per_analysis": ms(window_cpu_s) / len(ok) if ok else math.nan,
            "peak_rss_mb": children_peak_rss_mb(),
        }
        return result

    n = max(1, len(records))
    metrics = {
        **wall,
        "setup.import_s": median([import_seconds("repro.service.cli", tmp) for _ in range(3)]),
        "service.submit_ms": _p50_ms(ok, "submit_s"),
        "service.queue_ms": _p50_ms(ok, "queue_s"),
        "service.run_ms": _p50_ms(ok, "run_s"),
        "service.finish_ms": _p50_ms(ok, "finish_s"),
        "service.notice_ms": _p50_ms(ok, "notice_s"),
        "service.result_ms": _p50_ms(ok, "result_s"),
        "service.polls_per_analysis": sum(r.get("polls", 0) for r in records) / n,
        "service.attempts_per_analysis": sum(r.get("attempts") or 0 for r in records) / n,
        "service.rejected": float(rejected),
        "service.cache_hit_ratio": hits / max(1.0, hits + computes),
        "service.journal_records_per_analysis": _lines(state / "jobs.jsonl") / n,
        "obs.trace_records_per_analysis": _lines(state / "trace.jsonl") / n,
        "service.run_dir_kb_per_analysis": _dir_kb(state / "runs") / n,
    }
    replayed = requests if hot else requests[:REPLAY_COLD]
    metrics.update(_replay(hot, replayed, program, work, cache, out))
    result["metrics"] = metrics
    return result
