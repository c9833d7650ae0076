"""Tests for the SWF reader/writer."""

import hashlib
import io
import json

import numpy as np
import pytest

from repro.workload import (
    MachineInfo,
    Workload,
    parse_swf_text,
    read_swf,
    render_swf_text,
    write_swf,
)
from repro.workload.fields import MISSING, SWF_FIELDS
from repro.workload.swf import SCAN_VERSION, scan_swf

SAMPLE = """\
; Computer: Test SP2
; MaxProcs: 128
; Note: tiny sample
1 0 5 100 4 90.0 -1 4 120 -1 1 3 1 7 1 -1 -1 -1
2 60 0 200.5 8 -1 -1 8 -1 -1 0 4 1 8 1 -1 -1 -1
"""


class TestParse:
    def test_header_parsed(self):
        w = parse_swf_text(SAMPLE)
        assert w.machine.name == "Test SP2"
        assert w.machine.processors == 128
        assert w.machine.description == "tiny sample"

    def test_jobs_parsed(self):
        w = parse_swf_text(SAMPLE)
        assert len(w) == 2
        assert np.array_equal(w.column("used_procs"), [4, 8])
        assert w.column("run_time")[1] == pytest.approx(200.5)

    def test_missing_values_kept(self):
        w = parse_swf_text(SAMPLE)
        assert w.column("used_memory")[0] == MISSING

    def test_short_lines_padded(self):
        w = parse_swf_text("1 0 5 100 4\n")
        assert len(w) == 1
        assert w.column("status")[0] == MISSING

    def test_too_many_fields_rejected(self):
        line = " ".join(["1"] * 19)
        with pytest.raises(ValueError, match="19 fields"):
            parse_swf_text(line)

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_swf_text("1 0 abc\n")

    def test_blank_lines_skipped(self):
        w = parse_swf_text("\n\n1 0 5 100 4\n\n")
        assert len(w) == 1

    def test_empty_log(self):
        w = parse_swf_text("; MaxProcs: 10\n")
        assert len(w) == 0
        assert w.machine.processors == 10

    def test_procs_inferred_without_header(self):
        w = parse_swf_text("1 0 0 10 32\n2 5 0 10 64\n")
        assert w.machine.processors == 64

    def test_explicit_machine_overrides(self):
        m = MachineInfo("forced", 999)
        w = parse_swf_text(SAMPLE, machine=m)
        assert w.machine.processors == 999

    def test_name_defaults_to_computer_header(self):
        w = parse_swf_text(SAMPLE)
        assert w.name == "Test SP2"

    def test_explicit_name(self):
        w = parse_swf_text(SAMPLE, name="mylog")
        assert w.name == "mylog"


class TestRoundTrip:
    def test_render_and_parse(self, small_workload):
        text = render_swf_text(small_workload)
        back = parse_swf_text(text)
        assert len(back) == len(small_workload)
        assert back.machine.processors == small_workload.machine.processors
        # Floats are rendered with 2 decimals; integers exactly.
        assert np.array_equal(back.column("used_procs"), small_workload.column("used_procs"))
        assert np.allclose(
            back.column("run_time"), np.round(small_workload.column("run_time"), 2)
        )

    def test_missing_survives_roundtrip(self, small_machine):
        w = Workload.from_arrays(machine=small_machine, submit_time=[0.0], run_time=[5.0])
        back = parse_swf_text(render_swf_text(w))
        assert back.column("used_procs")[0] == MISSING

    def test_headers_in_output(self, small_workload):
        text = render_swf_text(small_workload, headers={"Custom": "value"})
        assert "; Custom: value" in text
        assert f"; MaxJobs: {len(small_workload)}" in text

    def test_file_io(self, small_workload, tmp_path):
        path = tmp_path / "log.swf"
        write_swf(small_workload, path)
        back = read_swf(path)
        assert len(back) == len(small_workload)

    def test_stream_io(self, small_workload):
        buf = io.StringIO()
        write_swf(small_workload, buf)
        back = read_swf(io.StringIO(buf.getvalue()))
        assert len(back) == len(small_workload)

    def test_field_count_is_18(self, small_workload):
        line = render_swf_text(small_workload).splitlines()[-1]
        assert len(line.split()) == len(SWF_FIELDS) == 18


MALFORMED = """\
; MaxProcs: 128
1 0 5 100 4
2 0 abc
3 10 5 100 4
"""


class TestOnError:
    def test_default_policy_raises_with_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_swf_text(MALFORMED)

    def test_skip_drops_bad_lines(self):
        w = parse_swf_text(MALFORMED, on_error="skip")
        assert len(w) == 2
        assert np.array_equal(w.column("job_id"), [1, 3])
        assert not hasattr(w, "parse_errors")

    def test_quarantine_records_errors_on_workload(self):
        w = parse_swf_text(MALFORMED, on_error="quarantine")
        assert len(w) == 2
        assert len(w.parse_errors) == 1
        err = w.parse_errors[0]
        assert err.lineno == 3
        assert "non-numeric" in err.reason
        assert err.line == "2 0 abc"

    def test_quarantine_flags_too_many_fields(self):
        text = " ".join(["9"] * 19) + "\n1 0 5 100 4\n"
        w = parse_swf_text(text, on_error="quarantine")
        assert len(w) == 1
        assert "19 fields" in w.parse_errors[0].reason

    def test_quarantined_errors_reach_the_audit(self):
        from repro.workload.anomalies import audit_workload

        w = parse_swf_text(MALFORMED, on_error="quarantine")
        report = audit_workload(w)
        assert report.parse_errors == w.parse_errors
        assert not report.is_clean
        assert "1 unparsable line(s)" in report.summary()

    def test_clean_parse_keeps_audit_clean_of_parse_errors(self):
        from repro.workload.anomalies import audit_workload

        w = parse_swf_text(SAMPLE, on_error="quarantine")
        assert w.parse_errors == ()
        assert audit_workload(w).parse_errors == ()

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            parse_swf_text(SAMPLE, on_error="ignore")

    def test_read_swf_threads_policy(self, tmp_path):
        path = tmp_path / "log.swf"
        path.write_text(MALFORMED)
        w = read_swf(path, on_error="skip")
        assert len(w) == 2
        with pytest.raises(ValueError, match="line 3"):
            read_swf(path)


class TestScanVersion:
    """``SCAN_VERSION`` moves with what ``scan_swf`` returns.

    The service stores each upload's scan under ``SCAN_VERSION`` and
    loads only its own version's, so a scan change that kept the number
    would have spools written by the old scan read as the new one's.
    When the digest below changes, bump ``SCAN_VERSION`` and pin the new
    pair.
    """

    #: Each path and rule of the scan: header keys, the int64 and float
    #: bulk tables, padding, values past 2**53, the per-line scan, and the
    #: rejections (a token, an int value no int64 holds).
    CORPUS = (
        SAMPLE,
        "; Computer: A\n; maxprocs: 64\n1 0 5 100 4 90.5 -1 4 120 -1 1 3 1 7 1 -1 -1 -1\n",
        "1 0 5\n2 10.25 0\n",
        "1 9007199254740993 5 100 4\n2 3 5 100 4\n",
        "1 0 5 100 4\n; mid-file\n2 1 5 100 4\r\n",
        "1 inf 5 100 4 nan\n",
        "1 0 5 100 inf\n",
        "1 0 5 100 9223372036854775808\n",
        "1 0 oops\n",
    )

    def _digest(self):
        digest = hashlib.sha256()
        for text in self.CORPUS:
            try:
                headers, columns, _ = scan_swf(text.encode())
            except ValueError:
                digest.update(b"rejected\0")
                continue
            digest.update(json.dumps(headers, sort_keys=True).encode())
            for name, col in columns.items():
                digest.update(f"\0{name}:{col.dtype.str}:".encode())
                digest.update(col.tobytes())
        return digest.hexdigest()

    #: ``SCAN_VERSION`` and the digest of the corpus's scan at it.
    PINNED = (1, "79055d747f3c87b8630e2e37cb6cdc07f92149a3659f1c4c2f10f18770d0081b")

    def test_the_scan_of_a_fixed_corpus_is_pinned_to_the_version(self):
        assert (SCAN_VERSION, self._digest()) == self.PINNED
