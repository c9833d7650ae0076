"""Standard Workload Format reader and writer.

Format, as defined by the Parallel Workloads Archive the paper announces:

* lines starting with ``;`` are header comments of the form
  ``; Key: value`` (e.g. ``; MaxProcs: 512``);
* every other non-blank line is one job: 18 whitespace-separated numeric
  fields in the order of :data:`repro.workload.fields.SWF_FIELDS`;
* ``-1`` denotes an unknown value.

The reader tolerates records with fewer than 18 fields (some early archive
conversions truncated trailing unknowns) by padding with ``-1``, and maps
recognised header keys onto :class:`~repro.workload.workload.MachineInfo`.

Malformed job lines are handled per the ``on_error`` policy: ``"raise"``
(the default) fails fast on the first bad line, ``"skip"`` silently
drops bad lines, and ``"quarantine"`` drops them *and* records each as a
:class:`SwfParseError` on ``workload.parse_errors`` — which
:func:`repro.workload.anomalies.audit_workload` folds into its report,
so a dirty archive file shows up in the same audit as the paper's other
log anomalies.

Two scan paths share these semantics.  Every input reaches them as bytes:
a string is encoded as UTF-8, and a gzip file or binary handle is
decompressed.  The fast path hands the whole job block to NumPy's C
tokenizer in one call — no per-field ``float()``, no per-line Python
loop — and is taken only when it provably matches the reference scan:
comments confined to the leading header block, ordinary newlines, and a
clean uniform job table.  Anything else (a malformed token, ragged
records, mid-file comments, exotic line separators) falls back to the
original per-line scan (``_scan_reference``), so ``on_error`` policies,
short-record padding and ``SwfParseError`` line numbers are preserved
bit for bit.  NumPy's tokenizer accepts a strict subset of
Python ``float`` syntax, so the fallback is the only direction the two
paths can disagree in.  Wrappers that take the per-line scan for every
input are the equivalence oracles in ``tests/oracles/swf.py``.

Both paths reject a job line whose int field (job number, sizes,
status, ids) holds a value no int64 can: NaN, an infinity, or a
magnitude of 2**63 or more, which :class:`Workload` would otherwise cast
to ``-2**63``.  Float fields keep any value ``float()`` reads.

:func:`scan_swf` is the one entry to both paths: it returns the header
block and the raw columns, and :func:`build_workload` turns those into
a :class:`~repro.workload.workload.Workload`.  :func:`read_swf` does both
at once; the service scans an upload once at submit, spools the scan's
headers and columns, and its worker makes the same ``build_workload``
call on them, so an upload is never parsed twice.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass
from typing import BinaryIO, Dict, List, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from repro.obs.spans import span as obs_span
from repro.util.atomicio import atomic_write_text
from repro.workload.fields import MISSING, SWF_FIELDS
from repro.workload.workload import MachineInfo, Workload

__all__ = [
    "SCAN_VERSION",
    "SwfParseError",
    "build_workload",
    "read_swf",
    "scan_swf",
    "write_swf",
    "parse_swf_text",
    "render_swf_text",
]

#: Accepted ``on_error`` policies for the SWF reader.
_ON_ERROR_POLICIES = ("raise", "skip", "quarantine")

#: The version of :func:`scan_swf`'s output.  Bump it whenever the scan
#: returns other headers or columns for some input: the service stores
#: upload scans under it and never loads one of another version.
#: ``tests/workload/test_swf.py::TestScanVersion`` pins the scan of a
#: fixed corpus to this number.
SCAN_VERSION = 1


@dataclass(frozen=True)
class SwfParseError:
    """One malformed SWF job line, kept for the anomaly audit."""

    lineno: int
    reason: str
    line: str

# Header keys we map onto MachineInfo; compared case-insensitively.
_HEADER_PROCS = ("maxprocs", "maxnodes", "processors")

#: Line separators ``str.splitlines`` honours beyond ``\n``.  The fast
#: scan splits on ``\n`` only, so any of these forces the reference scan
#: (they are vanishingly rare in archive files).  Checked with per-char
#: ``in`` (memchr) rather than one regex pass: ~10x faster on a big log.
_EXOTIC_BREAKS = "\r\v\f\x1c\x1d\x1e\x85  "

#: An int field's value must lie in ``[-2**63, 2**63)`` to cast to int64;
#: NaN and the infinities lie outside.
_INT64_LOW, _INT64_HIGH = -(2.0**63), 2.0**63
_INT_INDICES = tuple(f.index for f in SWF_FIELDS if f.dtype == "int")

#: ``str(int(v))`` needs exact integer text; beyond this magnitude the
#: int64 bulk formatting of the renderer could overflow, so fall back.
_RENDER_INT_LIMIT = float(2**62)


def _parse_header_line(headers: Dict[str, str], line: str) -> None:
    body = line.lstrip(";").strip()
    if ":" in body:
        key, _, value = body.partition(":")
        headers[key.strip().lower()] = value.strip()


def _scan_reference(
    text: str, on_error: str
) -> Tuple[Dict[str, str], Dict[str, np.ndarray], List[SwfParseError]]:
    """The original per-line scan: headers, columns, parse errors."""
    headers: Dict[str, str] = {}
    rows: List[List[float]] = []
    errors: List[SwfParseError] = []

    def bad_line(lineno: int, reason: str, line: str) -> None:
        if on_error == "raise":
            raise ValueError(f"line {lineno}: {reason}")
        errors.append(SwfParseError(lineno=lineno, reason=reason, line=line))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(";"):
            _parse_header_line(headers, line)
            continue
        tokens = line.split()
        if len(tokens) > len(SWF_FIELDS):
            bad_line(lineno, f"{len(tokens)} fields, SWF defines {len(SWF_FIELDS)}", line)
            continue
        try:
            values = [float(t) for t in tokens]
        except ValueError as exc:
            bad_line(lineno, f"non-numeric field ({exc})", line)
            continue
        # A finite sum excludes NaN and infinities, so min and max then
        # bound every value; only a line failing that looks field by field.
        if not (
            math.isfinite(sum(values))
            and _INT64_LOW <= min(values)
            and max(values) < _INT64_HIGH
        ):
            misfit = _int64_misfit(values)
            if misfit is not None:
                field = SWF_FIELDS[misfit].name
                bad_line(lineno, f"{field} {tokens[misfit]} does not fit an int64", line)
                continue
        values.extend([float(MISSING)] * (len(SWF_FIELDS) - len(values)))
        rows.append(values)

    data = np.asarray(rows, dtype=float) if rows else np.empty((0, len(SWF_FIELDS)))
    return headers, {f.name: data[:, f.index] for f in SWF_FIELDS}, errors


def _int64_misfit(values: List[float]) -> Optional[int]:
    """Index of the first int field of *values* outside int64, or ``None``."""
    for i in _INT_INDICES:
        if i < len(values) and not _INT64_LOW <= values[i] < _INT64_HIGH:
            return i
    return None


#: Aggressive bulk dtype: every field whose values are integral in
#: practice parses through loadtxt's integer converter (~1.7x faster
#: than the float converter).  Archive logs keep times in whole seconds
#: and memory in whole KB; only the average CPU time commonly carries
#: decimals.  A file with decimals elsewhere simply fails this attempt
#: and parses via the all-float matrix instead.
_FAST_DTYPE = np.dtype(
    [
        (f.name, np.float64 if f.name == "avg_cpu_time" else np.int64)
        for f in SWF_FIELDS
    ]
)

#: int64-parsed values at or above 2**53 would not round-trip through
#: the reference scan's float64, so they force the all-float attempt.
_EXACT_FLOAT_LIMIT = 2**53


def _columns_from_record(rec: np.ndarray) -> Optional[Dict[str, np.ndarray]]:
    """Columns from a ``_FAST_DTYPE`` record array; ``None`` past 2**53.

    The reference scan routes every value through float64, which rounds
    integers at 2**53 and beyond; int64 parsing would preserve them and
    silently diverge, so such files take the all-float path instead.
    """
    columns: Dict[str, np.ndarray] = {}
    for f in SWF_FIELDS:
        col = rec[f.name]
        if col.dtype == np.int64:
            # Materialize the strided record view as the contiguous array
            # Workload wants (float64 for float fields) *before* the range
            # reduction — contiguous min/max is much faster, and Workload's
            # own ascontiguousarray cast then reuses the array as-is.  The
            # 2**53 test stays exact on the converted floats: smaller ints
            # convert exactly, and rounding never pulls a value below the
            # representable 2**53 boundary.
            col = col.astype(np.float64) if f.dtype == "float" else np.ascontiguousarray(col)
            if col.size and max(-col.min(), col.max()) >= _EXACT_FLOAT_LIMIT:
                return None
        else:
            # The float-parsed field is copied out too, so no column keeps
            # the whole record array alive once the scan returns.
            col = np.ascontiguousarray(col)
        columns[f.name] = col
    return columns


def _empty_columns() -> Dict[str, np.ndarray]:
    empty = np.empty((0, len(SWF_FIELDS)))
    return {f.name: empty[:, f.index] for f in SWF_FIELDS}


def _loadtxt_attempts(make_source) -> Optional[Dict[str, np.ndarray]]:
    """Bulk-parse a job table: integer-heavy dtype first, float matrix second.

    *make_source* returns a fresh loadtxt input (the seeked byte stream)
    per attempt.  ``None`` means the reference scan must decide.
    """
    try:
        rec = np.atleast_1d(
            np.loadtxt(make_source(), dtype=_FAST_DTYPE, comments=None)
        )
    except (ValueError, OverflowError):
        rec = None
    if rec is not None:
        columns = _columns_from_record(rec)
        if columns is not None:
            return columns
    try:
        data = np.loadtxt(make_source(), dtype=float, comments=None, ndmin=2)
    except ValueError:
        return None  # ragged or non-numeric: the reference scan rules
    if data.shape[1] > len(SWF_FIELDS):
        return None  # every line over-long: reference reports each line
    if data.shape[1] < len(SWF_FIELDS):
        # Uniformly short records: pad trailing unknowns like the
        # reference scan pads each row.
        padded = np.full((data.shape[0], len(SWF_FIELDS)), float(MISSING))
        padded[:, : data.shape[1]] = data
        data = padded
    # NaN propagates through min and max and fails the comparisons, so
    # only a table holding NaN, an infinity or a huge value looks closer.
    if data.size and not (_INT64_LOW <= data.min() and data.max() < _INT64_HIGH):
        ints = data[:, list(_INT_INDICES)]
        if not (np.all(ints >= _INT64_LOW) and np.all(ints < _INT64_HIGH)):
            return None  # an int field no int64 holds: the reference names its line
    return {f.name: data[:, f.index] for f in SWF_FIELDS}


def _scan_bytes(raw: bytes) -> Optional[Tuple[Dict[str, str], Dict[str, np.ndarray]]]:
    """Bulk scan of raw SWF bytes; ``None`` -> decode and use the reference scan.

    Splits the leading comment block off by hand, then hands the entire
    job table to ``np.loadtxt`` (:func:`_loadtxt_attempts`).  The job
    table never becomes a Python string at all — loadtxt's C tokenizer
    reads the byte stream directly, so a 100k-job file skips both the
    UTF-8 decode and the per-line split.  Eligibility is checked up front
    so a success is guaranteed to equal the reference scan: a comment
    below the first job line, or bytes that loadtxt treats as field
    separators but ``str.splitlines`` treats as line breaks
    (``\\v \\f \\x1c \\x1d \\x1e \\x85``), force the fallback
    (``\\x85`` may falsely match a UTF-8 continuation byte — that only
    costs speed, never correctness).  Lone ``\\r`` needs no
    guard: loadtxt refuses embedded carriage returns, so mixed line
    endings fail into the fallback on their own.
    """
    headers: Dict[str, str] = {}
    pos, n = 0, len(raw)
    while pos < n:
        nl = raw.find(b"\n", pos)
        end = n if nl < 0 else nl
        line = raw[pos:end].strip()
        if line and not line.startswith(b";"):
            break  # first job line starts here
        if line:
            if any(c in line for c in (b"\r", b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e")):
                return None  # splitlines would cut this header line up
            try:
                decoded = line.decode("utf-8")
            except UnicodeDecodeError:
                return None
            if any(c in decoded for c in _EXOTIC_BREAKS):
                return None
            _parse_header_line(headers, decoded)
        pos = end + 1
    if pos >= n:
        return headers, _empty_columns()
    if raw.find(b";", pos) != -1:
        return None  # comments (or stray semicolons) below the header block
    for sep in (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x85"):
        if raw.find(sep, pos) != -1:
            return None  # loadtxt would split fields where splitlines cuts lines
    bio = io.BytesIO(raw)

    def source() -> io.BytesIO:
        bio.seek(pos)
        return bio

    columns = _loadtxt_attempts(source)
    if columns is None:
        return None
    return headers, columns


def build_workload(
    headers: Dict[str, str],
    columns: Dict[str, np.ndarray],
    *,
    name: Optional[str] = None,
    machine: Optional[MachineInfo] = None,
    errors: Sequence[SwfParseError] = (),
    on_error: str = "raise",
) -> Workload:
    """The :class:`Workload` of one :func:`scan_swf` result.

    Without *machine*, the header's processor count (or else the largest
    observed job size) and ``Computer``/``Note`` lines describe
    the machine; a header-less log takes its machine name from *name*.
    """
    if machine is None:
        procs = None
        for key in _HEADER_PROCS:
            if key in headers:
                try:
                    procs = int(float(headers[key]))
                except (ValueError, OverflowError):  # not a number, or infinite
                    continue
                break
        if procs is None:
            observed = columns["used_procs"]
            positive = observed[observed > 0]
            procs = int(positive.max()) if positive.size else 1
        machine = MachineInfo(
            name=headers.get("computer", name or "swf"),
            processors=max(procs, 1),
            description=headers.get("note", ""),
        )
    if name is None:
        name = headers.get("computer", machine.name)
    workload = Workload(columns, machine, name)
    if on_error == "quarantine":
        workload.parse_errors = tuple(errors)
    return workload


def scan_swf(
    raw: Optional[bytes],
    text: Optional[str] = None,
    *,
    on_error: str = "raise",
) -> Tuple[Dict[str, str], Dict[str, np.ndarray], List[SwfParseError]]:
    """The one SWF scan: headers, columns and parse errors of a whole log.

    The bulk byte scan, else the per-line reference scan, inside one
    ``swf.parse`` span.  *raw* is the whole decompressed content; *text*
    is its decoded form when the caller already holds it.  A string
    UTF-8 cannot encode (a lone surrogate) arrives as ``raw=None`` and
    goes straight to the reference scan.  Header keys are lowercased,
    and every column holds one SWF field as the scan parsed it.  Under
    ``on_error="raise"`` a malformed line (or bytes that are not UTF-8)
    raises ``ValueError``, naming the line when it is a malformed one.
    """
    if on_error not in _ON_ERROR_POLICIES:
        raise ValueError(
            f"on_error must be one of {', '.join(_ON_ERROR_POLICIES)}; got {on_error!r}"
        )
    errors: List[SwfParseError] = []
    with obs_span("swf.parse", on_error=on_error) as _sp:
        fast = None if raw is None else _scan_bytes(raw)
        if fast is not None:
            headers, columns = fast
        else:
            if text is None:
                text = raw.decode("utf-8")
            headers, columns, errors = _scan_reference(text, on_error)
        _sp.set(
            jobs=int(columns["job_id"].shape[0]),
            bad_lines=len(errors),
            fast=fast is not None,
        )
    return headers, columns, errors


def _parse(
    raw: Optional[bytes],
    text: Optional[str],
    name: Optional[str],
    machine: Optional[MachineInfo],
    on_error: str,
) -> Workload:
    """The one SWF parse: :func:`scan_swf`, then :func:`build_workload`."""
    headers, columns, errors = scan_swf(raw, text, on_error=on_error)
    return build_workload(
        headers, columns, name=name, machine=machine, errors=errors, on_error=on_error
    )


def parse_swf_text(
    text: str,
    *,
    name: Optional[str] = None,
    machine: Optional[MachineInfo] = None,
    on_error: str = "raise",
) -> Workload:
    """Parse SWF content from a string.

    Parameters
    ----------
    text:
        The file contents.
    name:
        Workload display name; defaults to the header's ``Computer`` field
        or ``"swf"``.
    machine:
        Overrides machine metadata inferred from the header.  Without a
        header ``MaxProcs`` line and without *machine*, the processor count
        falls back to the maximum observed job size.
    on_error:
        Malformed-line policy: ``"raise"`` (default) fails on the first
        bad job line, ``"skip"`` drops bad lines, ``"quarantine"`` drops
        them and records each on ``workload.parse_errors`` for the
        anomaly audit.
    """
    try:
        raw: Optional[bytes] = text.encode("utf-8")
    except UnicodeEncodeError:
        raw = None
    return _parse(raw, text, name, machine, on_error)


def read_swf(
    path: Union[str, os.PathLike, TextIO, BinaryIO],
    *,
    name: Optional[str] = None,
    machine: Optional[MachineInfo] = None,
    on_error: str = "raise",
) -> Workload:
    """Read a workload from an SWF file path or an open text or binary file.

    Gzip-compressed content is handled transparently (the Parallel
    Workloads Archive distributes its logs as ``.swf.gz``), detected by
    the gzip magic bytes rather than the extension, for a path and a
    binary file alike.  *on_error* is the malformed-line policy of
    :func:`parse_swf_text`.
    """
    if hasattr(path, "read"):
        content = path.read()
        if isinstance(content, str):
            return parse_swf_text(content, name=name, machine=machine, on_error=on_error)
        raw = _gunzip(content)
    else:
        raw = _read_raw_bytes(path)
    return _parse(raw, None, name, machine, on_error)


def _read_raw_bytes(path: Union[str, os.PathLike]) -> bytes:
    """Whole file as bytes, transparently gunzipping by magic number."""
    with open(path, "rb") as fh:
        return _gunzip(fh.read())


def _gunzip(raw: bytes) -> bytes:
    """*raw*, decompressed if it starts with the gzip magic number."""
    if raw[:2] == b"\x1f\x8b":
        import gzip

        raw = gzip.decompress(raw)
    return raw


def _merged_headers(
    workload: Workload, headers: Optional[Dict[str, str]]
) -> Dict[str, str]:
    merged: Dict[str, str] = {
        "Computer": workload.machine.name,
        "MaxProcs": str(workload.machine.processors),
        "MaxJobs": str(len(workload)),
    }
    if workload.machine.description:
        merged["Note"] = workload.machine.description
    if headers:
        merged.update(headers)
    return merged


def _format_ints(values: List[int]) -> List[str]:
    """All of *values* as decimal strings via one C-level printf."""
    return (("%d\n" * len(values)) % tuple(values)).split("\n")[:-1]


def _render_string_columns(workload: Workload) -> Optional[List[object]]:
    """Bulk-format every SWF column to strings; ``None`` -> scalar path.

    Matches ``SwfField.render`` cell for cell: int columns print as
    integers, float columns print integral values without a fraction and
    everything else as ``%.2f``.  Each column is converted by a single
    printf-style ``%`` over the whole value tuple — the C formatting loop
    — rather than one Python-level ``render`` call per cell.  Non-finite
    or astronomically large values defer to the scalar renderer (the
    integral test and exact big-int digits differ there).
    """
    out: List[object] = []
    for f in SWF_FIELDS:
        col = workload.column(f.name)
        if f.dtype == "int":
            # Workload stores int fields as int64 already.
            out.append(_format_ints(col.tolist()))
            continue
        if not np.all(np.isfinite(col)) or np.any(np.abs(col) >= _RENDER_INT_LIMIT):
            return None
        integral = col == np.trunc(col)
        strs = np.empty(col.shape[0], dtype=object)
        iv = col[integral].astype(np.int64).tolist()
        strs[integral] = _format_ints(iv)
        fv = col[~integral].tolist()
        strs[~integral] = (("%.2f\n" * len(fv)) % tuple(fv)).split("\n")[:-1]
        out.append(strs)
    return out


def _render_rows_reference(workload: Workload, buf: io.StringIO) -> None:
    """The original per-row, per-field scalar renderer."""
    cols = [workload.column(f.name) for f in SWF_FIELDS]
    for i in range(len(workload)):
        buf.write(" ".join(f.render(col[i]) for f, col in zip(SWF_FIELDS, cols)))
        buf.write("\n")


def render_swf_text(workload: Workload, *, headers: Optional[Dict[str, str]] = None) -> str:
    """Render a workload as SWF text (headers first, then one line per job).

    Job rows are produced by bulk column formatting — one vectorized
    string conversion per SWF field instead of 18 Python-level ``render``
    calls per job — so the write path keeps pace with the bulk reader.
    Output is byte-identical to the per-row renderer
    (``_render_rows_reference``), which still renders tables holding
    non-finite or huge values.
    """
    buf = io.StringIO()
    for key, value in _merged_headers(workload, headers).items():
        buf.write(f"; {key}: {value}\n")
    str_cols = _render_string_columns(workload)
    if str_cols is None:
        _render_rows_reference(workload, buf)
    elif len(workload):
        table = np.empty((len(workload), len(SWF_FIELDS)), dtype=object)
        for j, col in enumerate(str_cols):
            table[:, j] = col
        row_fmt = "%s " * (len(SWF_FIELDS) - 1) + "%s\n"
        buf.write((row_fmt * len(workload)) % tuple(table.ravel().tolist()))
    return buf.getvalue()


def write_swf(
    workload: Workload,
    path: Union[str, os.PathLike, TextIO],
    *,
    headers: Optional[Dict[str, str]] = None,
) -> None:
    """Write a workload to SWF at *path* (path or open text file).

    Paths ending in ``.gz`` are gzip-compressed, matching how the archive
    distributes its logs.
    """
    text = render_swf_text(workload, headers=headers)
    if hasattr(path, "write"):
        path.write(text)
        return
    if str(path).endswith(".gz"):
        import gzip

        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(text)
        return
    atomic_write_text(path, text)
