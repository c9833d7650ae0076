"""Upload ingest: the submit scans an SWF body once, the worker loads the scan.

``ServiceApp.submit`` decodes and scans an upload before it journals a
job and spools the scan's headers and columns as
``<sha256>.scan<N>.npz``; the
worker rebuilds the workload from them with the call ``read_swf`` ends
in.  The property here is that this split is invisible: whatever the
body, the submit accepts exactly what ``read_swf`` reads, the spool loads
to the workload ``read_swf`` returns, and a rejection writes nothing.
"""

import gzip
import io
import json
import os
import tempfile
import urllib.parse

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import app as app_module
from repro.service import store as store_module
from repro.service.analyses import (
    AnalysisSpec,
    _load_workload,
    compute_analysis,
    parse_analysis_request,
)
from repro.service.app import ServiceApp
from repro.service.errors import ServiceError
from repro.service.store import decode_upload
from repro.workload import swf
from repro.workload.fields import SWF_FIELDS
from repro.workload.swf import SCAN_VERSION, read_swf, scan_swf

# -- generated upload bodies ----------------------------------------------------

_INT = st.integers(-1, 10**6).map(str)
_DECIMAL = st.builds(lambda i, f: f"{i}.{f:02d}", st.integers(0, 10**5), st.integers(0, 99))
#: At or past 2**53, where float64 rounds and the int64 bulk parse must
#: give way to the float one; up to 2**64, past what an int field holds.
_HUGE = st.integers(2**53, 2**64).map(str)
#: Decimals only where SWF has a float field; a fraction in an int field
#: comes from ``_BAD_LINE``.
_FIELD_TOKENS = [
    st.one_of(*[_INT] * 6, _DECIMAL, _HUGE) if f.dtype == "float" else st.one_of(*[_INT] * 7, _HUGE)
    for f in SWF_FIELDS
]
_HEADER = st.one_of(
    st.integers(1, 4096).map(lambda n: f"; MaxProcs: {n}"),
    st.sampled_from(["; Computer: Test SP2", "; Note: a generated log", "; Version: 2.2"]),
)
_BAD_LINE = st.one_of(
    st.lists(_INT, min_size=19, max_size=21).map(" ".join),  # more fields than SWF has
    st.sampled_from(["1 0 0 10 inf", "1 nan 0 10 4", "1 0 0 10 4 -inf", "1 0 0 inf 4"]),  # non-finite
    st.sampled_from(["1 0 0 10 4.5", "1.5 0 0 10 4", "1 0 0 10 -0.5"]),  # a fraction in an int field
    st.tuples(st.lists(_INT, max_size=4), st.sampled_from(["abc", "1.2.3", "--1", "12a"])).map(
        lambda t: " ".join(t[0] + [t[1]])
    ),
)


@st.composite
def upload_bodies(draw):
    """SWF upload bodies: plain or gzip, with or without a header block,
    short or ragged records, a comment below the first job, decimals,
    values past 2**53 and 2**63, and now and then one malformed line."""
    lines = draw(st.lists(_HEADER, max_size=3))
    first_job = len(lines)
    width = draw(st.integers(1, len(SWF_FIELDS)))  # < 18: short records
    ragged = draw(st.integers(0, 3)) == 0
    for _ in range(draw(st.integers(1, 8))):
        w = draw(st.integers(1, len(SWF_FIELDS))) if ragged else width
        lines.append(" ".join(draw(_FIELD_TOKENS[i]) for i in range(w)))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(first_job + 1, len(lines))), "; a comment mid-file")
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(_BAD_LINE))
    text = draw(st.sampled_from(["\n"] * 3 + ["\r\n"])).join(lines) + draw(st.sampled_from(["\n", ""]))
    body = text.encode("ascii")
    return gzip.compress(body, mtime=0) if draw(st.booleans()) else body


def _assert_same_workload(got, want):
    assert len(got) == len(want)
    for f in SWF_FIELDS:
        a, b = got.column(f.name), want.column(f.name)
        assert a.dtype == b.dtype, f.name
        assert a.tobytes() == b.tobytes(), f.name
    assert got.machine == want.machine
    assert got.name == want.name


class TestSubmitProperty:
    # A value an int field cannot hold must be rejected, not cast.
    @pytest.mark.filterwarnings("error:invalid value encountered in cast:RuntimeWarning")
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(body=upload_bodies(), label=st.sampled_from(["upload", "U7", "Test SP2"]))
    def test_submit_accepts_what_read_swf_reads_and_spools_its_workload(self, body, label):
        try:
            want = read_swf(io.BytesIO(body), name=label)
        except ValueError as exc:
            want = exc
        doc = {"kind": "coplot", "params": {"label": label}}
        with tempfile.TemporaryDirectory() as state:
            app = ServiceApp(state, workers=1)
            app.runner.submit = lambda job_id: None  # journal the job, run nothing
            try:
                try:
                    status, reply = app.submit(doc, upload_body=body)
                except ServiceError as err:  # anything else would be a 500
                    status, reply = err.status, err.body()
                spooled = sorted(os.listdir(app.store.uploads_dir))
                if isinstance(want, ValueError):
                    assert status == 400
                    assert reply["error"]["code"] == "bad_swf"
                    assert reply["error"]["message"] == f"malformed SWF upload: {want}"
                    assert spooled == []
                    return
                assert status == 202, reply
                digest = decode_upload(body)[0]
                assert spooled == [f"{digest}.scan{SCAN_VERSION}.npz"]
                record = app.store.get(reply["job_id"])
                spec = AnalysisSpec(  # as the worker rebuilds it
                    kind=record["kind"],
                    input=record["spec"]["input"],
                    params=record["spec"]["params"],
                )
                _assert_same_workload(_load_workload(spec, app.store.uploads_dir), want)
            finally:
                app.close(wait=False)


# -- the worker side -------------------------------------------------------------

#: A cheap analysis of an upload: one series, one estimator.
HURST = {"kind": "hurst", "params": {"attributes": ["run_time"], "methods": ["rs"]}}


def _swf_spool_payload(body, root):
    """The payload of ``HURST`` on *body* from a spool holding only ``<digest>.swf``."""
    digest, raw = decode_upload(body)
    uploads = root / "uploads"
    uploads.mkdir()
    (uploads / f"{digest}.swf").write_bytes(raw)
    payload, hit, _ = compute_analysis(
        parse_analysis_request(HURST, upload_digest=digest),
        cache_dir=str(root / "cache"),
        fingerprint="test",
        uploads_dir=str(uploads),
    )
    assert hit is False
    return payload


class TestWorkerPath:
    def test_swf_only_spool_still_completes(self, tmp_path, small_swf):
        payload = _swf_spool_payload(small_swf, tmp_path)
        assert payload["workload"] == {"name": "upload", "jobs": 150}
        assert payload["panel"]["run_time"]["n"] > 0

    def test_worker_loads_the_spool_without_parsing(
        self, service_factory, http, poll_done, small_swf, monkeypatch, tmp_path
    ):
        want = _swf_spool_payload(small_swf, tmp_path)
        svc = service_factory(workers=1)

        def no_parse(*args, **kwargs):
            raise AssertionError("the upload was parsed again")

        # The submit's own scan is bound in repro.service.app; every parse
        # through read_swf, and so a forked worker's, now raises.
        monkeypatch.setattr(swf, "scan_swf", no_parse)
        spec = urllib.parse.quote(json.dumps(HURST))
        status, body, _ = http(
            f"{svc['base']}/v1/analyses?spec={spec}",
            gzip.compress(small_swf),
            content_type="application/octet-stream",
        )
        assert status == 202, body
        job = poll_done(svc["base"], body["job_id"])
        assert job["status"] == "done", job.get("error")
        status, payload, _ = http(f"{svc['base']}/v1/analyses/{body['job_id']}/result")
        assert status == 200
        assert payload == want

    def test_swf_only_spool_completes_in_the_service(
        self, service_factory, http, poll_done, small_swf
    ):
        svc = service_factory(workers=1)
        digest, raw = decode_upload(small_swf)
        with open(os.path.join(svc["app"].store.uploads_dir, f"{digest}.swf"), "wb") as fh:
            fh.write(raw)
        doc = dict(HURST, input={"upload": digest})
        status, body, _ = http(f"{svc['base']}/v1/analyses", json.dumps(doc).encode())
        assert status == 202, body
        job = poll_done(svc["base"], body["job_id"])
        assert job["status"] == "done", job.get("error")
        assert sorted(os.listdir(svc["app"].store.uploads_dir)) == [f"{digest}.swf"]


class TestRejections:
    @pytest.mark.parametrize(
        "doc, body, code",
        [
            ({"kind": "coplot"}, b"1 0 0 10 4\n2 0 oops\n", "bad_swf"),
            ({"kind": "coplot"}, b"1 0 0 10 4\n2 5 0 10 inf\n", "bad_swf"),
            ({"kind": "coplot"}, b"1 0 0 10 4\n2 5 0 10 9223372036854775808\n", "bad_swf"),
            ({"kind": "coplot"}, b"1 0 0 10 4\n2 5 0 10 4.5\n", "bad_swf"),
            ({"kind": "coplot"}, b"1 0 0 10 4\n2 5 0 inf 4\n", "bad_swf"),
            ({"kind": "coplot"}, gzip.compress(b"1 0 0 10 4\n")[:-6], "bad_swf"),
            ({"kind": "coplot"}, b" \r\n\t\n", "bad_swf"),
            # A bad spec is refused before the (also bad) log is scanned.
            ({"kind": "nope"}, b"2 0 oops\n", "invalid_spec"),
        ],
        ids=[
            "malformed",
            "infinite-size",
            "size-past-int64",
            "fractional-size",
            "infinite-run-time",
            "truncated-gzip",
            "blank",
            "bad-spec",
        ],
    )
    def test_a_rejected_upload_leaves_nothing(self, tmp_path, doc, body, code):
        app = ServiceApp(str(tmp_path / "state"), workers=1)
        try:
            with pytest.raises(ServiceError) as err:
                app.submit(doc, upload_body=body)
            assert err.value.code == code
            assert os.listdir(app.store.uploads_dir) == []
            assert app.store.jobs() == []
        finally:
            app.close()

    def test_a_size_no_int64_holds_names_its_line(self, tmp_path):
        body = b"1 0 0 10 4\n2 5 0 10 inf\n"
        app = ServiceApp(str(tmp_path / "state"), workers=1)
        try:
            with pytest.raises(ServiceError) as err:
                app.submit({"kind": "coplot"}, upload_body=body)
        finally:
            app.close()
        message = "line 2: used_procs inf does not fit an int64"
        assert err.value.body()["error"]["message"] == f"malformed SWF upload: {message}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_swf(io.BytesIO(body))

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"1 0 0 10 4\n2 5 0 10 4.5\n", "line 2: used_procs 4.5 is not an integer"),
            (b"1 0 0 10 4\n2 5 0 inf 4\n", "line 2: run_time inf is not finite"),
        ],
        ids=["fractional-size", "infinite-run-time"],
    )
    def test_a_value_swf_does_not_define_names_its_line(self, tmp_path, body, message):
        app = ServiceApp(str(tmp_path / "state"), workers=1)
        try:
            with pytest.raises(ServiceError) as err:
                app.submit({"kind": "coplot"}, upload_body=body)
        finally:
            app.close()
        assert err.value.status == 400
        assert err.value.body()["error"]["message"] == f"malformed SWF upload: {message}"

    def test_an_infinite_machine_size_header_is_read_not_crashed_on(self, tmp_path):
        # float("1e999") is inf: the header's size must not overflow int()
        # and turn the upload into a 500; the jobs' sizes stand in for it.
        body = b"; MaxProcs: 1e999\n1 0 0 10 4\n2 5 0 10 8\n"
        app = ServiceApp(str(tmp_path / "state"), workers=1)
        app.runner.submit = lambda job_id: None
        try:
            status, _ = app.submit({"kind": "coplot"}, upload_body=body)
        finally:
            app.close(wait=False)
        assert status == 202
        assert read_swf(io.BytesIO(body)).machine.processors == 8


class TestScanVersions:
    def test_a_scan_of_another_version_is_scanned_again(self, tmp_path, monkeypatch, small_swf):
        scans = []
        monkeypatch.setattr(app_module, "scan_swf", lambda raw: scans.append(raw) or scan_swf(raw))
        app = ServiceApp(str(tmp_path / "state"), workers=1)
        app.runner.submit = lambda job_id: None
        digest = decode_upload(small_swf)[0]
        try:
            for label in ("first", "spooled"):
                app.submit({"kind": "coplot", "params": {"label": label}}, upload_body=small_swf)
            assert len(scans) == 1  # the spooled scan stood for the second
            monkeypatch.setattr(store_module, "SCAN_VERSION", SCAN_VERSION + 1)
            app.submit({"kind": "coplot", "params": {"label": "again"}}, upload_body=small_swf)
        finally:
            app.close(wait=False)
        assert len(scans) == 2
        assert sorted(os.listdir(app.store.uploads_dir)) == [
            f"{digest}.scan{SCAN_VERSION}.npz",
            f"{digest}.scan{SCAN_VERSION + 1}.npz",
        ]
