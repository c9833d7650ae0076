"""End-to-end HTTP tests against a real server on an ephemeral port."""

import gzip
import http.client
import json
import os
import socket
import threading
import urllib.parse


class TestUploadRoundTrip:
    def test_upload_poll_fetch_json_and_svg(self, service_factory, http, poll_done, small_swf):
        svc = service_factory(workers=2)
        spec = {"kind": "coplot", "params": {"seed": 0, "n_init": 2}}
        url = f"{svc['base']}/v1/analyses?spec={urllib.parse.quote(json.dumps(spec))}"

        status, body, _ = http(url, gzip.compress(small_swf),
                               content_type="application/octet-stream")
        assert status == 202, body
        assert body["status"] == "queued"
        job = poll_done(svc["base"], body["job_id"])
        assert job["status"] == "done", job.get("error")
        assert job["cache_hit"] is False

        status, payload, _ = http(f"{svc['base']}{body['links']['result']}")
        assert status == 200
        assert payload["kind"] == "coplot"
        assert "upload" in payload["map"]["labels"]
        assert len(payload["map"]["labels"]) == 11  # 10 production logs + upload
        assert payload["map"]["alienation"] < 0.2
        assert payload["nearest"] is not None

        status, svg, ctype = http(f"{svc['base']}{body['links']['result']}?format=svg")
        assert status == 200
        assert ctype.startswith("image/svg+xml")
        assert svg.lstrip().startswith(b"<svg")

    def test_run_dir_and_latest_link(self, service_factory, http, poll_done, cheap_doc):
        svc = service_factory(workers=1)
        status, body, _ = http(
            f"{svc['base']}/v1/analyses", json.dumps(cheap_doc).encode()
        )
        assert status == 202, body
        job = poll_done(svc["base"], body["job_id"])
        assert os.path.isfile(os.path.join(job["run_dir"], "result.json"))
        latest = os.path.join(svc["state_dir"], "runs", "latest")
        assert os.path.realpath(latest) == os.path.realpath(job["run_dir"])


class TestCaching:
    def test_identical_posts_compute_once(self, service_factory, http, poll_done,
                                          cheap_doc, read_metric):
        """The acceptance criterion: the second POST is a cache hit,
        proven by the service's own /metrics counters."""
        svc = service_factory(workers=2)
        doc = json.dumps(cheap_doc).encode()

        status, first, _ = http(f"{svc['base']}/v1/analyses", doc)
        assert status == 202, first
        job1 = poll_done(svc["base"], first["job_id"])
        assert job1["status"] == "done" and job1["cache_hit"] is False

        _, before, _ = http(f"{svc['base']}/metrics")
        before = before.decode()
        assert read_metric(before, "analysis_compute_total") == 1
        assert read_metric(before, "analysis_cache_hits_total") == 0

        status, second, _ = http(f"{svc['base']}/v1/analyses", doc)
        assert status == 202, second
        assert second["job_id"] != first["job_id"]
        assert second["key"] == first["key"]
        job2 = poll_done(svc["base"], second["job_id"])
        assert job2["status"] == "done" and job2["cache_hit"] is True

        _, after, _ = http(f"{svc['base']}/metrics")
        after = after.decode()
        assert read_metric(after, "analysis_cache_hits_total") == 1
        assert read_metric(after, "analysis_compute_total") == 1  # no recompute

        _, p1, _ = http(f"{svc['base']}/v1/analyses/{first['job_id']}/result")
        _, p2, _ = http(f"{svc['base']}/v1/analyses/{second['job_id']}/result")
        assert p1 == p2

    def test_in_flight_duplicate_is_409(self, service_factory, http, cheap_doc, poll_done):
        release = threading.Event()
        started = threading.Event()

        def hold(job_id):
            started.set()
            release.wait(timeout=60)

        svc = service_factory(workers=1, before_execute=hold)
        doc = json.dumps(cheap_doc).encode()
        try:
            status, first, _ = http(f"{svc['base']}/v1/analyses", doc)
            assert status == 202
            assert started.wait(timeout=30)

            status, dup, _ = http(f"{svc['base']}/v1/analyses", doc)
            assert status == 409
            assert dup["error"]["code"] == "already_in_flight"
            assert dup["error"]["job_id"] == first["job_id"]

            status, not_ready, _ = http(
                f"{svc['base']}/v1/analyses/{first['job_id']}/result"
            )
            assert status == 409
            assert not_ready["error"]["code"] == "result_not_ready"
        finally:
            release.set()
        job = poll_done(svc["base"], first["job_id"])
        assert job["status"] == "done"


class TestErrors:
    def test_malformed_swf_is_structured_400(self, service_factory, http):
        svc = service_factory()
        status, body, _ = http(
            f"{svc['base']}/v1/analyses?kind=coplot",
            b"definitely not\nan SWF log\n",
            content_type="application/octet-stream",
        )
        assert status == 400
        assert body["error"]["code"] == "bad_swf"
        assert body["error"]["message"]

    def test_oversized_body_is_413(self, service_factory, http, small_swf):
        svc = service_factory(max_body_bytes=1024)
        status, body, _ = http(
            f"{svc['base']}/v1/analyses?kind=coplot",
            small_swf,
            content_type="application/octet-stream",
        )
        assert status == 413
        assert body["error"]["code"] == "payload_too_large"
        assert body["error"]["limit"] == 1024

    def test_missing_content_length_is_411(self, service_factory):
        svc = service_factory()
        host, port = svc["server"].server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/analyses")
            conn.putheader("Content-Type", "application/json")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 411
            assert json.loads(resp.read())["error"]["code"] == "length_required"
        finally:
            conn.close()

    def test_invalid_json_body(self, service_factory, http):
        svc = service_factory()
        status, body, _ = http(f"{svc['base']}/v1/analyses", b"{nope")
        assert status == 400
        assert body["error"]["code"] == "invalid_json"

    def test_invalid_spec(self, service_factory, http):
        svc = service_factory()
        status, body, _ = http(
            f"{svc['base']}/v1/analyses",
            json.dumps({"input": {"workload": "NotALog"}}).encode(),
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_spec"

    def test_too_short_named_workload_creates_no_job(self, service_factory, http):
        from repro.service.store import JOBS_JOURNAL_NAME
        from repro.util import appendlog

        svc = service_factory()
        doc = {"kind": "hurst", "input": {"workload": "CTC", "n_jobs": 99}}
        status, body, _ = http(f"{svc['base']}/v1/analyses", json.dumps(doc).encode())
        assert status == 400
        assert body["error"]["code"] == "invalid_spec"
        assert "n_jobs" in body["error"]["message"]
        _, listing, _ = http(f"{svc['base']}/v1/analyses")
        assert listing["jobs"] == []
        journal = os.path.join(svc["state_dir"], JOBS_JOURNAL_NAME)
        records = appendlog.replay(journal)[0] if os.path.exists(journal) else []
        assert [r for r in records if r.get("type") == "job"] == []

    def test_unsupported_media_type(self, service_factory, http):
        svc = service_factory()
        status, body, _ = http(
            f"{svc['base']}/v1/analyses", b"<xml/>", content_type="text/xml"
        )
        assert status == 415
        assert body["error"]["code"] == "unsupported_media_type"

    def test_unknown_job_is_404(self, service_factory, http):
        svc = service_factory()
        status, body, _ = http(f"{svc['base']}/v1/analyses/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_unknown_route_is_404(self, service_factory, http):
        svc = service_factory()
        status, body, _ = http(f"{svc['base']}/v2/whatever")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_post_to_get_route_is_405(self, service_factory, http):
        svc = service_factory()
        status, body, _ = http(f"{svc['base']}/metrics", b"{}")
        assert status == 405
        assert body["error"]["code"] == "method_not_allowed"


class TestIntrospection:
    def test_healthz(self, service_factory, http):
        svc = service_factory()
        status, body, _ = http(f"{svc['base']}/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["jobs"] == {
            "queued": 0,
            "running": 0,
            "done": 0,
            "error": 0,
            "cancelled": 0,
            "poisoned": 0,
        }

    def test_list_jobs(self, service_factory, http, poll_done, cheap_doc):
        svc = service_factory(workers=1)
        status, body, _ = http(
            f"{svc['base']}/v1/analyses", json.dumps(cheap_doc).encode()
        )
        poll_done(svc["base"], body["job_id"])
        status, listing, _ = http(f"{svc['base']}/v1/analyses")
        assert status == 200
        assert [j["id"] for j in listing["jobs"]] == [body["job_id"]]
        assert listing["counts"]["done"] == 1
        assert "spec" not in listing["jobs"][0]

    def test_metrics_exposition(self, service_factory, http):
        svc = service_factory()
        http(f"{svc['base']}/healthz")
        status, body, ctype = http(f"{svc['base']}/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        text = body.decode()
        assert "repro_service_http_requests_total" in text
        assert "repro_service_http_requests_healthz_total" in text
        assert "repro_service_jobs_queued" in text
        assert "repro_service_http_request_seconds_healthz" in text

    def test_request_spans_reach_the_trace(self, service_factory, http):
        from repro.obs import read_trace

        svc = service_factory()
        http(f"{svc['base']}/healthz")
        trace = read_trace(os.path.join(svc["state_dir"], "trace.jsonl"))
        names = [s.get("name") for s in trace.spans]
        assert "http.request" in names

    def test_draining_returns_503(self, service_factory, http, cheap_doc):
        svc = service_factory()
        svc["app"].close(wait=True)
        status, body, _ = http(
            f"{svc['base']}/v1/analyses", json.dumps(cheap_doc).encode()
        )
        assert status == 503
        assert body["error"]["code"] == "shutting_down"


class TestKeepAlive:
    def test_each_response_is_one_socket_write(self, service_factory, monkeypatch):
        """Status line, headers and body leave in one write.  Sent apart,
        Nagle holds the body back until the client's delayed ACK of the
        head, ~40 ms per response on a kept-alive connection."""
        svc = service_factory()
        host, port = svc["server"].server_address[:2]
        writes = []

        def counting(real):
            def write(sock, data, *args):
                if sock.family == socket.AF_INET and sock.getsockname()[1] == port:
                    writes.append(len(data))  # the server's side only
                return real(sock, data, *args)

            return write

        for name in ("send", "sendall"):
            monkeypatch.setattr(socket.socket, name, counting(getattr(socket.socket, name)))
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for method, path in (
                ("GET", "/healthz"),
                ("GET", "/metrics"),
                ("GET", "/v1/analyses/nope"),
                ("DELETE", "/healthz"),
            ):
                writes.clear()
                conn.request(method, path)
                resp = conn.getresponse()
                body = resp.read()
                assert body
                assert len(writes) == 1, (method, path, writes)
                assert writes[0] > len(body)  # the head rode along
        finally:
            conn.close()

    def test_one_connection_serves_many_requests(self, service_factory, cheap_doc):
        svc = service_factory(workers=1)
        host, port = svc["server"].server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200 and json.loads(resp.read())["status"] == "ok"
            sock = conn.sock
            conn.request(
                "POST",
                "/v1/analyses",
                body=json.dumps(cheap_doc).encode(),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 202
            job_id = json.loads(resp.read())["job_id"]
            for path in (f"/v1/analyses/{job_id}", "/v1/analyses", "/readyz", "/nope"):
                conn.request("GET", path)
                resp = conn.getresponse()
                assert resp.status == (404 if path == "/nope" else 200), path
                json.loads(resp.read())
            assert conn.sock is sock  # every request rode the first connection
        finally:
            conn.close()
