"""Fast SWF scan ≡ reference scan: columns, errors and line numbers.

The bulk loadtxt path must be invisible: every input either parses to
bit-identical columns or falls back to the per-line reference scan, so
error messages, their line numbers and short-record padding are
preserved exactly.  These tests drive both scanners over
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
from repro.workload.workload import MachineInfo, Workload

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


def _parse_spans(parse):
    """Run *parse* under a tracer; return its ``swf.parse`` span records."""
    sink = ListSink()
    token = set_tracer(Tracer(sink))
    try:
        parse()
    finally:
        reset_tracer(token)
    return [r for r in sink.records if r.get("name") == "swf.parse"]


def _assert_equivalent(text):
    got = parse_swf_text(text)
    want = parse_swf_text_reference(text)
    _assert_same_workload(got, want)
    return got


def _assert_rejected(parse, reference, lineno):
    """*parse* and *reference* raise one message, naming line *lineno*."""
    with pytest.raises(ValueError) as fast_exc:
        parse()
    with pytest.raises(ValueError) as ref_exc:
        reference()
    assert str(fast_exc.value) == str(ref_exc.value)
    assert str(fast_exc.value).startswith(f"line {lineno}: ")
    return str(fast_exc.value)


def _assert_text_rejected(text, lineno):
    return _assert_rejected(
        lambda: parse_swf_text(text), lambda: parse_swf_text_reference(text), lineno
    )


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
    def test_raise_message_identical(self):
        message = _assert_text_rejected(MALFORMED, 3)
        assert "non-numeric" in message

    def test_ragged_lines_name_their_line(self):
        text = CLEAN + "4 0 1 2 3\n5 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18\n"
        assert _scan_bytes(text.encode()) is None
        assert "20 fields" in _assert_text_rejected(text, 8)

    def test_too_many_fields_line_numbers(self):
        text = CLEAN + "4 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17\n"
        assert "19 fields" in _assert_text_rejected(text, 7)

    def test_mid_file_comment_falls_back(self):
        text = CLEAN.replace("3 90 12", "; a comment mid-file\n3 90 12")
        assert _scan_bytes(text.encode()) is None
        _assert_equivalent(text)
        # The comment counts as a line of the numbering.
        _assert_text_rejected(text + "4 0 abc\n", 8)

    @pytest.mark.parametrize("sep", ["\v", "\f", "\x85", " ", " ", "\r"])
    def test_exotic_line_breaks_fall_back(self, sep):
        # splitlines treats these as line breaks; loadtxt would treat most
        # of them as field separators, so the fast scan must decline.
        text = f"; MaxProcs: 8\n1 0 5 100 4{sep}2 10 6 90 2\n"
        assert _scan_bytes(text.encode()) is None
        _assert_equivalent(text)
        # splitlines' numbering counts the break as a line end.
        _assert_text_rejected(text + "3 0 abc\n", 4)

    def test_exotic_break_in_header_falls_back(self):
        text = "; Note: a b\n1 0 5 100 4 -1 -1 4 120 -1 1 3 1 7 1 -1 -1 -1\n"
        assert _scan_bytes(text.encode()) is None
        # splitlines cuts the note, and its tail "b" is a job line.
        assert "non-numeric" in _assert_text_rejected(text, 2)

    #: The tokens of the test below that a scan refuses, and why.
    _REFUSED = {
        "0x1A": "non-numeric field",
        "nan": "submit_time nan is not finite",
        "inf": "submit_time inf is not finite",
        "-inf": "submit_time -inf is not finite",
    }

    @pytest.mark.parametrize(
        "token", ["1_0", "0x1A", "nan", "inf", "-inf", "+5", "1e3"]
    )
    def test_odd_numeric_tokens_match(self, token):
        text = f"; MaxProcs: 8\n1 {token} 5 100 4 -1 -1 4 120 -1 1 3 1 7 1 -1 -1 -1\n"
        if token in self._REFUSED:
            assert self._REFUSED[token] in _assert_text_rejected(text, 2)
        else:
            _assert_equivalent(text)

    @pytest.mark.parametrize(
        "token",
        ["inf", "-inf", "nan", "9223372036854775808", "-9223372036854777856", "1e19"],
    )
    @pytest.mark.filterwarnings("error:invalid value encountered in cast:RuntimeWarning")
    def test_int_values_no_int64_holds_are_bad_lines(self, token):
        # A uniform float table, so the bulk scan is tried first and must
        # decline in favour of the line the reference scan names.
        text = f"; MaxProcs: 8\n1 0.5 5 100 4\n2 1.5 5 100 {token}\n3 2.5 5 100 4\n"
        message = _assert_text_rejected(text, 3)
        assert message == f"line 3: used_procs {token} does not fit an int64"

    @pytest.mark.parametrize("token", ["4.5", "-0.5", "0.001", "4.000001", "1e-3"])
    @pytest.mark.parametrize(
        "table",
        [CLEAN, CLEAN.replace("2 60 0 200 8", "2 60 0 200.5 8")],
        ids=["int-table", "float-table"],
    )
    def test_fractional_int_values_are_bad_lines(self, token, table):
        text = table.replace("3 90 12 50 2", f"3 90 12 50 {token}")
        message = _assert_text_rejected(text, 6)
        assert message == f"line 6: used_procs {token} is not an integer"

    @pytest.mark.parametrize("token", ["4.0", "4.", "1e3", "-1.0"])
    def test_integral_floats_in_int_fields_are_read(self, token):
        text = f"1 0 5 100 4\n2 1 5 100 {token}\n"
        w = _assert_equivalent(text)
        assert w.column("used_procs").tolist() == [4, int(float(token))]

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("field", [1, 3, 5, 17], ids=lambda i: SWF_FIELDS[i].name)
    def test_non_finite_values_are_bad_lines(self, token, field):
        # An all-int table with a float avg_cpu_time takes the int64
        # record attempt first; the other float fields need the matrix.
        row = "2 60 0 200 8 7.5 -1 8 -1 -1 0 4 1 8 1 -1 -1 -1".split()
        row[field] = token
        text = CLEAN + " ".join(row) + "\n"
        message = _assert_text_rejected(text, 7)
        assert message == f"line 7: {SWF_FIELDS[field].name} {token} is not finite"

    def test_float_matrix_alone_rejects_what_the_record_attempt_would(self, monkeypatch):
        # Where loadtxt reads a fraction into an int64 field (NumPy
        # releases with the 1.23 deprecation), the record attempt is off
        # and the float matrix must catch every bad value itself.
        monkeypatch.setattr(swf, "_RECORD_ATTEMPT", False)
        assert _scan_bytes(CLEAN.encode()) is not None
        for bad in ("4.5", "nan", "inf", "9223372036854775808"):
            text = CLEAN.replace("3 90 12 50 2", f"3 90 12 50 {bad}")
            assert _scan_bytes(text.encode()) is None, bad

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
        assert "non-numeric" in _assert_text_rejected(text, 6)


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
        if text == MALFORMED:
            _assert_rejected(
                lambda: read_swf(io.BytesIO(raw)), lambda: read_swf_reference(str(path)), 3
            )
        else:
            _assert_same_workload(read_swf(io.BytesIO(raw)), read_swf_reference(str(path)))

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

    def test_malformed_file_names_its_line(self, tmp_path):
        path = tmp_path / "bad.swf"
        path.write_text(MALFORMED)
        _assert_rejected(lambda: read_swf(str(path)), lambda: read_swf_reference(str(path)), 3)

    def test_bom_falls_back_but_matches(self, tmp_path):
        # A BOM makes line 1 unparseable for the reference scan too; the
        # bytes path must decline so both report the identical error.
        raw = b"\xef\xbb\xbf" + CLEAN.encode()
        assert _scan_bytes(raw) is None
        path = tmp_path / "bom.swf"
        path.write_bytes(raw)
        _assert_rejected(lambda: read_swf(str(path)), lambda: read_swf_reference(str(path)), 1)


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
        w = parse_swf_text(text)
        assert render_swf_text(w) == render_swf_text_reference(w)

    def test_nonfinite_values_raise_in_both_renderers(self):
        # The reader refuses them, so a program builds such a workload.
        w = Workload.from_arrays(
            machine=MachineInfo("m", 8), submit_time=[np.inf], avg_cpu_time=[np.nan]
        )
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
