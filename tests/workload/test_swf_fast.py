"""Fast SWF scan ≡ reference scan: columns, errors and line numbers.

The bulk loadtxt path must be invisible: every input either parses to
bit-identical columns or falls back to the per-line reference scan, so
``on_error`` semantics, ``SwfParseError`` line numbers and short-record
padding are preserved exactly.  These tests drive both scanners over
clean, malformed and adversarial inputs and demand equality — plus a
guarantee that the fast path actually engages on clean logs (otherwise
the benchmark claim is hollow).
"""

import gzip
import io
import time

import numpy as np
import pytest

from repro.obs.spans import ListSink, Tracer, reset_tracer, set_tracer
from repro.workload import swf
from repro.workload.fields import MISSING, SWF_FIELDS
from repro.workload.swf import (
    _scan_bytes,
    parse_swf_text,
    read_swf,
    render_swf_text,
    write_swf,
)

from oracles.swf import (
    parse_swf_text_reference,
    read_swf_reference,
    render_swf_text_reference,
)

CLEAN = """\
; Computer: Test SP2
; MaxProcs: 128
; Note: tiny sample
1 0 5 100 4 90.5 -1 4 120 -1 1 3 1 7 1 -1 -1 -1
2 60 0 200 8 -1 -1 8 -1 -1 0 4 1 8 1 -1 -1 -1
3 90 12 50 2 33.25 -1 2 60 -1 1 5 2 7 0 -1 -1 -1
"""

MALFORMED = """\
; MaxProcs: 128
1 0 5 100 4
2 0 abc
3 10 5 100 4
"""


def _assert_same_workload(a, b):
    assert len(a) == len(b)
    for f in SWF_FIELDS:
        ca, cb = a.column(f.name), b.column(f.name)
        assert ca.dtype == cb.dtype, f.name
        equal_nan = ca.dtype.kind == "f"
        assert np.array_equal(ca, cb, equal_nan=equal_nan), f.name
    assert a.machine.name == b.machine.name
    assert a.machine.processors == b.machine.processors
    assert a.name == b.name
    assert getattr(a, "parse_errors", ()) == getattr(b, "parse_errors", ())


def _parse_spans(parse):
    """Run *parse* under a tracer; return its ``swf.parse`` span records."""
    sink = ListSink()
    token = set_tracer(Tracer(sink))
    try:
        parse()
    finally:
        reset_tracer(token)
    return [r for r in sink.records if r.get("name") == "swf.parse"]


def _assert_equivalent(text, **kwargs):
    got = parse_swf_text(text, **kwargs)
    want = parse_swf_text_reference(text, **kwargs)
    _assert_same_workload(got, want)
    return got


class TestFastPathEngages:
    def test_clean_text_takes_fast_scan(self):
        (record,) = _parse_spans(lambda: parse_swf_text(CLEAN))
        assert record["fast"] is True

    def test_clean_bytes_take_bytes_scan(self):
        assert _scan_bytes(CLEAN.encode()) is not None

    def test_decimals_outside_avg_cpu_still_bulk_parse(self):
        # run_time "200.5" defeats the integer dtype but not the float matrix.
        text = CLEAN.replace("2 60 0 200 8", "2 60 0 200.5 8")
        assert _scan_bytes(text.encode()) is not None
        _assert_equivalent(text)


class TestCleanEquivalence:
    def test_clean_sample(self):
        _assert_equivalent(CLEAN)

    def test_headers_only(self):
        _assert_equivalent("; Computer: X\n; MaxProcs: 4\n")

    def test_empty_text(self):
        _assert_equivalent("")

    def test_blank_lines_between_jobs(self):
        text = CLEAN.replace(
            "2 60 0 200 8", "\n   \n2 60 0 200 8"
        )
        _assert_equivalent(text)

    def test_crlf_line_endings(self):
        _assert_equivalent(CLEAN.replace("\n", "\r\n"))

    def test_no_trailing_newline(self):
        _assert_equivalent(CLEAN.rstrip("\n"))

    def test_uniform_short_records_padded(self):
        text = "; MaxProcs: 8\n1 0 5 100 4\n2 10 6 90 2\n"
        w = _assert_equivalent(text)
        assert w.column("status")[0] == MISSING

    def test_tabs_and_extra_spaces(self):
        _assert_equivalent(CLEAN.replace(" ", "\t", 3).replace("4 90.5", "4   90.5"))

    def test_huge_integers_fall_back_to_float_rounding(self):
        # 2**53 + 1 is not representable in float64; the reference rounds
        # it through float, so the fast path must reproduce that rounding.
        big = str(2**53 + 1)
        text = f"; MaxProcs: 4\n1 {big} 5 100 4 -1 -1 4 120 -1 1 3 1 7 1 -1 -1 -1\n"
        w = _assert_equivalent(text)
        assert w.column("submit_time")[0] == float(2**53 + 1)


class TestFallbackEquivalence:
    @pytest.mark.parametrize("policy", ["skip", "quarantine"])
    def test_malformed_matches_reference(self, policy):
        w = _assert_equivalent(MALFORMED, on_error=policy)
        if policy == "quarantine":
            assert [e.lineno for e in w.parse_errors] == [3]

    def test_raise_message_identical(self):
        with pytest.raises(ValueError) as fast_exc:
            parse_swf_text(MALFORMED)
        with pytest.raises(ValueError) as ref_exc:
            parse_swf_text_reference(MALFORMED)
        assert str(fast_exc.value) == str(ref_exc.value)

    def test_too_many_fields_line_numbers(self):
        text = CLEAN + "4 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17\n"
        w = _assert_equivalent(text, on_error="quarantine")
        assert [e.lineno for e in w.parse_errors] == [7]

    def test_mid_file_comment_falls_back(self):
        text = CLEAN.replace("3 90 12", "; a comment mid-file\n3 90 12")
        assert _scan_bytes(text.encode()) is None
        _assert_equivalent(text)

    @pytest.mark.parametrize("sep", ["\v", "\f", "\x85", " ", " ", "\r"])
    def test_exotic_line_breaks_fall_back(self, sep):
        # splitlines treats these as line breaks; loadtxt would treat most
        # of them as field separators, so the fast scan must decline.
        text = f"; MaxProcs: 8\n1 0 5 100 4{sep}2 10 6 90 2\n"
        assert _scan_bytes(text.encode()) is None
        _assert_equivalent(text, on_error="quarantine")

    def test_exotic_break_in_header_falls_back(self):
        text = "; Note: a b\n1 0 5 100 4 -1 -1 4 120 -1 1 3 1 7 1 -1 -1 -1\n"
        assert _scan_bytes(text.encode()) is None
        _assert_equivalent(text, on_error="quarantine")

    @pytest.mark.parametrize(
        "token", ["1_0", "0x1A", "nan", "inf", "-inf", "+5", "1e3"]
    )
    def test_odd_numeric_tokens_match(self, token):
        text = f"; MaxProcs: 8\n1 {token} 5 100 4 -1 -1 4 120 -1 1 3 1 7 1 -1 -1 -1\n"
        _assert_equivalent(text, on_error="quarantine")

    @pytest.mark.parametrize(
        "token",
        ["inf", "-inf", "nan", "9223372036854775808", "-9223372036854777856", "1e19"],
    )
    @pytest.mark.filterwarnings("error:invalid value encountered in cast:RuntimeWarning")
    def test_int_values_no_int64_holds_are_bad_lines(self, token):
        # A uniform float table, so the bulk scan is tried first and must
        # decline in favour of the line the reference scan names.
        text = f"; MaxProcs: 8\n1 0.5 5 100 4\n2 1.5 5 100 {token}\n3 2.5 5 100 4\n"
        w = _assert_equivalent(text, on_error="quarantine")
        assert [e.lineno for e in w.parse_errors] == [3]
        assert w.column("job_id").tolist() == [1, 3]
        message = f"line 3: used_procs {token} does not fit an int64"
        for parse in (parse_swf_text, parse_swf_text_reference):
            with pytest.raises(ValueError, match=f"^{message}$"):
                parse(text)

    @pytest.mark.filterwarnings("error:invalid value encountered in cast:RuntimeWarning")
    def test_int64_range_ends_are_read(self):
        # -2**63 itself, and the largest float64 below 2**63.
        text = "1 0.5 5 100 -9223372036854775808\n2 1.5 5 100 9223372036854774784\n"
        w = _assert_equivalent(text)
        assert w.column("used_procs").tolist() == [-(2**63), 2**63 - 1024]

    def test_unencodable_text_takes_reference_scan(self):
        # A lone surrogate has no UTF-8 form: the text goes straight to
        # the per-line scan, which reports the line like any bad token.
        text = CLEAN.replace("33.25", "33.25\ud800")
        w = _assert_equivalent(text, on_error="quarantine")
        assert [e.lineno for e in w.parse_errors] == [6]


class TestFileIngest:
    def _roundtrip(self, tmp_path, text, name="log.swf"):
        path = tmp_path / name
        path.write_bytes(text.encode() if isinstance(text, str) else text)
        got = read_swf(str(path))
        want = read_swf_reference(str(path))
        _assert_same_workload(got, want)
        _assert_same_workload(got, parse_swf_text(text))
        return got

    def test_bytes_ingest_matches_text_parse(self, tmp_path):
        self._roundtrip(tmp_path, CLEAN)

    def test_gzip_ingest(self, tmp_path):
        path = tmp_path / "log.swf.gz"
        path.write_bytes(gzip.compress(CLEAN.encode()))
        _assert_same_workload(read_swf(str(path)), parse_swf_text(CLEAN))

    @pytest.mark.parametrize("text", [CLEAN, MALFORMED], ids=["clean", "malformed"])
    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_binary_handle_matches_path(self, tmp_path, text, compress):
        raw = text.encode()
        if compress:
            raw = gzip.compress(raw)
        path = tmp_path / "log.swf"
        path.write_bytes(raw)
        got = read_swf(io.BytesIO(raw), on_error="quarantine")
        _assert_same_workload(got, read_swf_reference(str(path), on_error="quarantine"))

    def test_parse_span_times_the_scan(self, tmp_path, monkeypatch):
        """The ``swf.parse`` span encloses the bulk scan of a file."""
        path = tmp_path / "log.swf"
        path.write_bytes(CLEAN.encode())
        scan = swf._scan_bytes

        def slow_scan(raw):
            time.sleep(0.05)
            return scan(raw)

        monkeypatch.setattr(swf, "_scan_bytes", slow_scan)
        (record,) = _parse_spans(lambda: read_swf(str(path)))
        assert record["fast"] is True
        assert record["wall_s"] >= 0.05

    def test_malformed_file_quarantine(self, tmp_path):
        path = tmp_path / "bad.swf"
        path.write_text(MALFORMED)
        got = read_swf(str(path), on_error="quarantine")
        want = read_swf_reference(str(path), on_error="quarantine")
        _assert_same_workload(got, want)
        assert [e.lineno for e in got.parse_errors] == [3]

    def test_bom_falls_back_but_matches(self, tmp_path):
        # A BOM makes line 1 unparseable for the reference scan too; the
        # bytes path must decline so both report the identical error.
        raw = b"\xef\xbb\xbf" + CLEAN.encode()
        assert _scan_bytes(raw) is None
        path = tmp_path / "bom.swf"
        path.write_bytes(raw)
        got = read_swf(str(path), on_error="quarantine")
        want = read_swf_reference(str(path), on_error="quarantine")
        _assert_same_workload(got, want)
        assert got.parse_errors[0].lineno == 1


class TestRenderEquivalence:
    def _workload(self, text=CLEAN):
        return parse_swf_text(text)

    def test_render_byte_identical(self):
        w = self._workload()
        assert render_swf_text(w) == render_swf_text_reference(w)

    def test_render_parse_roundtrip(self):
        w = self._workload()
        again = parse_swf_text(render_swf_text(w))
        _assert_same_workload(w, again)

    def test_huge_values_fall_back_but_match(self):
        # 5e18 exceeds the fast renderer's integer-printf range, forcing
        # the scalar fallback; output must still match the reference.
        text = "; MaxProcs: 8\n1 5e18 5 100 4 -1 -1 4 120 -1 1 3 1 7 1 -1 -1 -1\n"
        w = parse_swf_text(text, on_error="quarantine")
        assert render_swf_text(w) == render_swf_text_reference(w)

    def test_nonfinite_values_raise_in_both_renderers(self):
        text = "; MaxProcs: 8\n1 inf 5 100 4 nan -1 4 120 -1 1 3 1 7 1 -1 -1 -1\n"
        w = parse_swf_text(text, on_error="quarantine")
        with pytest.raises((OverflowError, ValueError)):
            render_swf_text_reference(w)
        with pytest.raises((OverflowError, ValueError)):
            render_swf_text(w)

    def test_write_swf_uses_fast_render(self, tmp_path, small_workload=None):
        w = self._workload()
        path = tmp_path / "out.swf"
        write_swf(w, str(path))
        again = read_swf(str(path))
        _assert_same_workload(w, again)
