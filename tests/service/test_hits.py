"""Cache hits are answered by the job supervisor, with no worker process.

Each test counts the worker attempts the job runner starts by wrapping
``repro.service.jobs.supervise``, the primitive every worker runs under.
A hit must start none; a miss, or an attempt carrying an armed chaos
fault, still starts exactly one.
"""

import json
import os
import time

import pytest

from repro.obs import TRACE_NAME, read_trace
from repro.runtime.fingerprint import code_fingerprint
from repro.service import jobs
from repro.service.analyses import compute_analysis, parse_analysis_request
from repro.service.app import ServiceApp
from repro.service.store import JOBS_JOURNAL_NAME, JobStore


@pytest.fixture
def worker_starts(monkeypatch):
    """The list of worker attempts the job runner supervises."""
    calls = []
    real = jobs.supervise

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(jobs, "supervise", counting)
    return calls


def _publish(doc, *, cache_dir, uploads_dir, fingerprint):
    """Compute *doc* in this process and publish it, as a worker would."""
    payload, hit, key = compute_analysis(
        parse_analysis_request(doc),
        cache_dir=cache_dir,
        fingerprint=fingerprint,
        uploads_dir=uploads_dir,
    )
    assert hit is False
    return key, payload


def _publish_for(app, doc):
    return _publish(
        doc,
        cache_dir=app.cache_dir,
        uploads_dir=app.store.uploads_dir,
        fingerprint=app.fingerprint,
    )


def _job_span(state_dir, job_id, timeout_s=30.0):
    """The ``job:<id>`` span, once the supervisor has closed it."""
    deadline = time.monotonic() + timeout_s
    while True:
        for record in read_trace(os.path.join(state_dir, TRACE_NAME)).spans:
            if record.get("name") == f"job:{job_id}":
                return record
        assert time.monotonic() < deadline, f"no span for job {job_id}"
        time.sleep(0.02)


def _submit(http, svc, doc):
    status, body, _ = http(f"{svc['base']}/v1/analyses", json.dumps(doc).encode())
    assert status == 202, body
    return body["job_id"]


def _metrics(http, svc, read_metric, *names):
    _, text, _ = http(f"{svc['base']}/metrics")
    return [read_metric(text.decode(), name) for name in names]


def test_a_hit_starts_no_worker(
    service_factory, http, poll_done, cheap_doc, read_metric, worker_starts
):
    svc = service_factory(workers=1)
    first = _submit(http, svc, cheap_doc)
    job1 = poll_done(svc["base"], first)
    assert job1["status"] == "done" and job1["cache_hit"] is False
    assert len(worker_starts) == 1

    second = _submit(http, svc, cheap_doc)
    job2 = poll_done(svc["base"], second)
    assert job2["status"] == "done" and job2["cache_hit"] is True
    assert job2["attempts"] == 1
    assert len(worker_starts) == 1  # the hit was answered in the supervisor
    assert _job_span(svc["state_dir"], second)["cache_hit"] is True
    assert _metrics(
        http, svc, read_metric,
        "analyses_completed_total", "analysis_cache_hits_total", "analysis_compute_total",
    ) == [2, 1, 1]

    _, p1, _ = http(f"{svc['base']}/v1/analyses/{first}/result")
    _, p2, _ = http(f"{svc['base']}/v1/analyses/{second}/result")
    assert p1 == p2
    with open(os.path.join(job2["run_dir"], "result.json"), encoding="utf-8") as fh:
        assert json.load(fh) == p2
    with open(os.path.join(svc["state_dir"], JOBS_JOURNAL_NAME), encoding="utf-8") as fh:
        journal = [json.loads(line) for line in fh]
    assert [r["status"] for r in journal if r.get("id") == second] == [
        "queued", "running", "done",
    ]


def test_a_hit_with_an_armed_fault_still_runs_a_worker(
    service_factory, http, poll_done, cheap_doc, read_metric, worker_starts
):
    """The fault lands in a worker; the clean retry is then a hit."""
    svc = service_factory(workers=1, chaos="7:hurst*=raise,p=1,max_hits=1")
    _publish_for(svc["app"], cheap_doc)
    job_id = _submit(http, svc, cheap_doc)
    job = poll_done(svc["base"], job_id)
    assert job["status"] == "done", job.get("error")
    assert job["attempts"] == 2
    assert job["cache_hit"] is True
    assert len(worker_starts) == 1
    _job_span(svc["state_dir"], job_id)
    assert _metrics(
        http, svc, read_metric,
        "job_retries_total", "analysis_cache_hits_total", "analysis_compute_total",
    ) == [1, 1, 0]


def test_a_corrupt_entry_is_recomputed(
    service_factory, http, poll_done, cheap_doc, read_metric, worker_starts
):
    """The supervisor's read quarantines a torn entry; a worker recomputes."""
    svc = service_factory(workers=1)
    app = svc["app"]
    key, payload = _publish_for(app, cheap_doc)
    entry = app.cache.entry_path(key)
    text = entry.read_text(encoding="utf-8")
    entry.write_text(text[: len(text) // 2], encoding="utf-8")

    job_id = _submit(http, svc, cheap_doc)
    job = poll_done(svc["base"], job_id)
    assert job["status"] == "done", job.get("error")
    assert job["cache_hit"] is False
    assert len(worker_starts) == 1
    assert entry.with_suffix(".corrupt").exists()
    _job_span(svc["state_dir"], job_id)
    assert _metrics(
        http, svc, read_metric, "analysis_cache_hits_total", "analysis_compute_total"
    ) == [0, 1]
    _, result, _ = http(f"{svc['base']}/v1/analyses/{job_id}/result")
    assert result == payload


def test_a_recovered_job_whose_entry_is_published_finishes_without_a_worker(
    tmp_path, cheap_doc, worker_starts
):
    """A job journaled ``running`` whose worker published before the crash
    finishes ``done`` on boot with no worker, and is still charged one
    poison count like any job that was running at a crash."""
    state = str(tmp_path / "state")
    store = JobStore(state)
    key, payload = _publish(
        cheap_doc,
        cache_dir=os.path.join(state, "cache"),
        uploads_dir=store.uploads_dir,
        fingerprint=code_fingerprint(),
    )
    spec = parse_analysis_request(cheap_doc)
    store.create("job-published", kind=spec.kind, spec=spec.canonical(), key=key)
    store.update("job-published", status="running", started_ts=1.0)

    app = ServiceApp(state, workers=1)
    try:
        assert app.recovered_jobs == 1
        deadline = time.monotonic() + 60.0
        while app.store.get("job-published")["status"] not in ("done", "error"):
            assert time.monotonic() < deadline
            time.sleep(0.02)
        record = app.store.get("job-published")
        assert record["status"] == "done"
        assert record["cache_hit"] is True
        assert record["recovered"] is True
        assert app.store.poison_count(key) == 1
        assert worker_starts == []
        assert app.job_result("job-published") == payload
    finally:
        app.close(wait=True)


def test_a_cancel_that_races_a_hit_loses_to_done(
    service_factory, http, poll_done, cheap_doc, worker_starts
):
    """A cancel that lands while the supervisor reads the entry finds the
    job running; the hit still finishes it ``done``."""
    svc = service_factory(workers=1)
    app = svc["app"]
    _publish_for(app, cheap_doc)
    cancels = []
    real_get = app.runner.cache.get

    def get_racing_a_cancel(key):
        job_id = next(r["id"] for r in app.store.jobs() if r["status"] == "running")
        cancels.append(app.runner.cancel(job_id))
        return real_get(key)

    app.runner.cache.get = get_racing_a_cancel
    job_id = _submit(http, svc, cheap_doc)
    job = poll_done(svc["base"], job_id)
    assert [c["status"] for c in cancels] == ["running"]
    assert job["status"] == "done" and job["cache_hit"] is True
    assert worker_starts == []
