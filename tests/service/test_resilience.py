"""PR 8 resilience layer: hard timeouts, cancel, backpressure, poison.

Chaos specs here key on the analysis kind (``hurst*``/``coplot*``)
because the service hashes ``<kind>:<cache-key-prefix>`` as the fault
identity — deterministic per spec, stable across restarts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service.app import ServiceApp
from repro.service.store import JobStore

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

CHEAP_HURST = {
    "kind": "hurst",
    "input": {"workload": "CTC", "n_jobs": 300, "seed": 1},
    "params": {"attributes": ["run_time"], "methods": ["rs"]},
}

CHEAP_COPLOT = {
    "kind": "coplot",
    "input": {"workload": "CTC", "n_jobs": 300, "seed": 1},
    "params": {"label": "RES", "seed": 0, "n_init": 2},
}


def _doc(base, **input_overrides):
    doc = json.loads(json.dumps(base))
    doc["input"].update(input_overrides)
    return doc


def _submit(http, svc, doc):
    status, body, _ = http(f"{svc['base']}/v1/analyses", json.dumps(doc).encode())
    assert status == 202, body
    return body["job_id"]


def _wait_status(http, svc, job_id, wanted, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while True:
        _, body, _ = http(f"{svc['base']}/v1/analyses/{job_id}")
        job = body["job"]
        if job["status"] in wanted:
            return job
        assert time.monotonic() < deadline, f"job stuck {job['status']}, wanted {wanted}"
        time.sleep(0.02)


def _delete(url):
    req = urllib.request.Request(url, method="DELETE")
    try:
        with urllib.request.urlopen(req, timeout=30.0) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestHardTimeout:
    def test_hung_worker_is_killed_at_deadline_and_slot_reused(
        self, service_factory, http, poll_done, read_metric
    ):
        """A chaos-hung job dies at ``job_timeout_s``; the single worker
        slot immediately serves the next (normal) job — the acceptance
        probe for hard cancellation."""
        svc = service_factory(
            workers=1,
            job_timeout_s=5.0,
            chaos="5:hurst*=hang,hang_s=60,max_hits=1",
        )
        t0 = time.monotonic()
        hung = _submit(http, svc, _doc(CHEAP_HURST))
        normal = _submit(http, svc, _doc(CHEAP_COPLOT))
        job = poll_done(svc["base"], hung)
        assert job["status"] == "error"
        error = job["error"]
        assert error["code"] == "timeout"
        assert error["limit_s"] == 5.0
        assert error["elapsed_s"] >= 5.0
        # The worker was SIGKILLed, not waited out: the 60s hang never ran.
        assert time.monotonic() - t0 < 30.0
        job = poll_done(svc["base"], normal)
        assert job["status"] == "done", job.get("error")
        # Satellite: the result endpoint maps the timeout to a 504 with
        # the elapsed/limit seconds in the body.
        status, body, _ = http(f"{svc['base']}/v1/analyses/{hung}/result")
        assert status == 504
        assert body["error"]["code"] == "timeout"
        assert body["error"]["limit_s"] == 5.0
        assert body["error"]["elapsed_s"] >= 5.0
        _, metrics, _ = http(f"{svc['base']}/metrics")
        assert read_metric(metrics.decode(), "job_timeouts_total") == 1

    def test_non_positive_timeout_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="job_timeout_s must be > 0"):
            ServiceApp(str(tmp_path / "state"), job_timeout_s=0)

    def test_cli_rejects_non_positive_timeout_before_booting(self, tmp_path):
        state_dir = tmp_path / "state"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--state-dir", str(state_dir), "--job-timeout-s", "-1"],
            env=dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src")),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "--job-timeout-s must be > 0" in proc.stderr
        assert not state_dir.exists()


class TestCancellation:
    def test_cancel_queued_job(self, service_factory, http, poll_done):
        gate = threading.Event()
        svc = service_factory(workers=1, before_execute=lambda job_id: gate.wait(30))
        try:
            held = _submit(http, svc, _doc(CHEAP_HURST))
            queued = _submit(http, svc, _doc(CHEAP_HURST, seed=2))
            status, body = _delete(f"{svc['base']}/v1/analyses/{queued}")
            assert status == 200
            assert body["job"]["status"] == "cancelled"
            # Terminal: result is 410, a second cancel is 409.
            status, body, _ = http(f"{svc['base']}/v1/analyses/{queued}/result")
            assert status == 410
            assert body["error"]["code"] == "job_cancelled"
            status, body = _delete(f"{svc['base']}/v1/analyses/{queued}")
            assert status == 409
            assert body["error"]["code"] == "not_cancellable"
        finally:
            gate.set()
        assert poll_done(svc["base"], held)["status"] == "done"

    def test_cancel_running_job_kills_the_worker(
        self, service_factory, http, poll_done, read_metric
    ):
        """DELETE on a running job SIGKILLs its (chaos-hung) worker and
        reaches ``cancelled`` in watchdog time, not hang time."""
        svc = service_factory(workers=1, chaos="3:hurst*=hang,hang_s=60,max_hits=1")
        job_id = _submit(http, svc, _doc(CHEAP_HURST))
        _wait_status(http, svc, job_id, ("running",))
        t0 = time.monotonic()
        status, body = _delete(f"{svc['base']}/v1/analyses/{job_id}")
        assert status == 200
        job = poll_done(svc["base"], job_id)
        assert job["status"] == "cancelled"
        assert time.monotonic() - t0 < 30.0  # not the 60s hang
        _, metrics, _ = http(f"{svc['base']}/metrics")
        assert read_metric(metrics.decode(), "analyses_cancelled_total") == 1

    def test_cancel_unknown_job_is_404(self, service_factory):
        svc = service_factory()
        status, body = _delete(f"{svc['base']}/v1/analyses/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"


class TestBackpressure:
    def test_overload_sheds_with_429_and_readyz_flips(
        self, service_factory, http, poll_done, read_metric
    ):
        """Saturate a workers=1, queue_depth=1 service: the third POST is
        shed with 429 + Retry-After, /readyz goes 503, and both recover
        once the queue drains — the overload satellite."""
        gate = threading.Event()
        svc = service_factory(
            workers=1, queue_depth=1, before_execute=lambda job_id: gate.wait(30)
        )
        try:
            first = _submit(http, svc, _doc(CHEAP_HURST))
            second = _submit(http, svc, _doc(CHEAP_HURST, seed=2))
            # Capacity (1+1) is taken: shed, with a Retry-After header.
            req = urllib.request.Request(
                f"{svc['base']}/v1/analyses",
                data=json.dumps(_doc(CHEAP_HURST, seed=3)).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(req, timeout=30.0)
            assert excinfo.value.code == 429
            shed = json.loads(excinfo.value.read())
            assert shed["error"]["code"] == "over_capacity"
            assert shed["error"]["retry_after"] > 0
            assert int(excinfo.value.headers["Retry-After"]) >= 1
            # Not ready while saturated; still alive.
            status, body, _ = http(f"{svc['base']}/readyz")
            assert status == 503
            assert body["error"]["code"] == "not_ready"
            status, body, _ = http(f"{svc['base']}/healthz")
            assert status == 200
        finally:
            gate.set()
        assert poll_done(svc["base"], first)["status"] == "done"
        assert poll_done(svc["base"], second)["status"] == "done"
        # Recovery: headroom is back, readiness with it.
        status, body, _ = http(f"{svc['base']}/readyz")
        assert status == 200
        assert body["status"] == "ready"
        assert body["headroom"] == 2
        _, metrics, _ = http(f"{svc['base']}/metrics")
        text = metrics.decode()
        assert read_metric(text, "analyses_shed_total") == 1
        assert read_metric(text, "queue_headroom") == 2


class TestRetriesAndPoison:
    def test_worker_crash_is_retried_to_done(
        self, service_factory, http, poll_done, read_metric
    ):
        """One injected worker crash (os._exit) is transient: the job
        retries with backoff and completes on attempt 2."""
        svc = service_factory(workers=1, chaos="9:hurst*=exit,p=1,max_hits=1")
        job_id = _submit(http, svc, _doc(CHEAP_HURST))
        job = poll_done(svc["base"], job_id)
        assert job["status"] == "done", job.get("error")
        assert job["attempts"] == 2
        _, metrics, _ = http(f"{svc['base']}/metrics")
        text = metrics.decode()
        assert read_metric(text, "worker_crashes_total") == 1
        assert read_metric(text, "job_retries_total") == 1

    def test_repeat_crasher_is_poisoned_then_pardoned(
        self, service_factory, http, poll_done
    ):
        """A spec that crashes every attempt trips the breaker at the
        threshold, quarantines resubmissions with 410, and a pardon on a
        chaos-free restart runs it to done."""
        svc = service_factory(
            workers=1,
            poison_threshold=2,
            job_retries=5,
            chaos="9:hurst*=exit,p=1",
        )
        job_id = _submit(http, svc, _doc(CHEAP_HURST))
        job = poll_done(svc["base"], job_id)
        assert job["status"] == "poisoned"
        assert job["error"]["code"] == "quarantined"
        assert job["attempts"] == 2  # tripped exactly at the threshold
        status, body, _ = http(f"{svc['base']}/v1/analyses/{job_id}/result")
        assert status == 410
        assert body["error"]["code"] == "quarantined"
        # Resubmitting the same spec is refused outright.
        status, body, _ = http(
            f"{svc['base']}/v1/analyses", json.dumps(_doc(CHEAP_HURST)).encode()
        )
        assert status == 410
        assert body["error"]["code"] == "quarantined"
        # A chaos-free restart on the same journal still refuses it
        # (poison records replay) until POST .../retry pardons it.
        svc2 = service_factory(state_dir=svc["state_dir"], workers=1, poison_threshold=2)
        assert svc2["app"].poisoned_on_boot == 0  # terminal, not re-charged
        status, body, _ = http(
            f"{svc2['base']}/v1/analyses", json.dumps(_doc(CHEAP_HURST)).encode()
        )
        assert status == 410
        status, body, _ = http(
            f"{svc2['base']}/v1/analyses/{job_id}/retry", json.dumps({}).encode()
        )
        assert status == 202, body
        job = poll_done(svc2["base"], job_id)
        assert job["status"] == "done", job.get("error")
        assert job["retried"] is True
        assert "error" not in job  # the stale quarantine error was shed

    def test_running_at_crash_poisons_on_boot_at_threshold(self, tmp_path):
        """A spec already charged once that is again ``running`` when the
        server dies lands ``poisoned`` on recovery, not re-enqueued —
        the crash-loop breaker across restarts."""
        state = str(tmp_path / "state")
        store = JobStore(state)
        from repro.service.analyses import parse_analysis_request

        spec = parse_analysis_request(json.loads(json.dumps(CHEAP_HURST)))
        store.create("job-killer", kind=spec.kind, spec=spec.canonical(), key="k-bad")
        store.update("job-killer", status="running", started_ts=1.0)
        store.record_key_failure("k-bad")  # the previous boot's charge

        app = ServiceApp(state, workers=1, poison_threshold=2)
        try:
            assert app.poisoned_on_boot == 1
            assert app.recovered_jobs == 0
            record = app.store.get("job-killer")
            assert record["status"] == "poisoned"
            assert record["error"]["code"] == "quarantined"
            assert app.store.poison_count("k-bad") == 2
        finally:
            app.close(wait=True)


class TestDrain:
    def test_drain_timeout_kills_and_requeues_without_poison(
        self, service_factory, http
    ):
        """A job still hung when ``--drain-timeout-s`` expires is killed
        and requeued for the next boot, with no poison charge — the
        interruption was ours, not the spec's."""
        svc = service_factory(workers=1, chaos="3:hurst*=hang,hang_s=60")
        job_id = _submit(http, svc, _doc(CHEAP_HURST))
        job = _wait_status(http, svc, job_id, ("running",))
        t0 = time.monotonic()
        pending = svc["app"].close(wait=True, drain_timeout_s=0.5)
        assert pending == [job_id]
        assert time.monotonic() - t0 < 30.0  # bounded, not the 60s hang
        record = svc["app"].store.get(job_id)
        assert record["status"] == "queued"
        assert record["drain_requeued"] is True
        assert svc["app"].store.poison_count(record["key"]) == 0

        # A chaos-free boot on the same journal finishes the job.
        app2 = ServiceApp(svc["state_dir"], workers=1)
        try:
            assert app2.recovered_jobs == 1
            deadline = time.monotonic() + 120.0
            while app2.store.get(job_id)["status"] not in ("done", "error"):
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert app2.store.get(job_id)["status"] == "done"
        finally:
            app2.close(wait=True)
