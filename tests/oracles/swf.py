"""SWF parse, read and render on the scalar paths only, the oracles of
:mod:`repro.workload.swf`.

The product keeps its per-line scan (``_scan_reference``) and per-row
renderer (``_render_rows_reference``) as the path for malformed, ragged,
commented or non-finite input; these wrappers take that path for every
input, which is how the reader and writer worked before the bulk paths.
"""

from __future__ import annotations

import os
from io import StringIO
from typing import Dict, Optional, TextIO, Union

from repro.workload.swf import (
    _ON_ERROR_POLICIES,
    build_workload,
    _merged_headers,
    _read_raw_bytes,
    _render_rows_reference,
    _scan_reference,
)
from repro.workload.workload import MachineInfo, Workload

__all__ = ["parse_swf_text_reference", "read_swf_reference", "render_swf_text_reference"]


def parse_swf_text_reference(
    text: str,
    *,
    name: Optional[str] = None,
    machine: Optional[MachineInfo] = None,
    on_error: str = "raise",
) -> Workload:
    """``parse_swf_text`` on the per-line scan, always."""
    if on_error not in _ON_ERROR_POLICIES:
        raise ValueError(
            f"on_error must be one of {', '.join(_ON_ERROR_POLICIES)}; got {on_error!r}"
        )
    headers, columns, errors = _scan_reference(text, on_error)
    return build_workload(
        headers, columns, name=name, machine=machine, errors=errors, on_error=on_error
    )


def read_swf_reference(
    path: Union[str, os.PathLike, TextIO],
    *,
    name: Optional[str] = None,
    machine: Optional[MachineInfo] = None,
    on_error: str = "raise",
) -> Workload:
    """``read_swf`` on the per-line scan, always: file bytes -> text ->
    per-line ``float()`` parse."""
    if hasattr(path, "read"):
        return parse_swf_text_reference(
            path.read(), name=name, machine=machine, on_error=on_error
        )
    text = _read_raw_bytes(path).decode("utf-8")
    return parse_swf_text_reference(text, name=name, machine=machine, on_error=on_error)


def render_swf_text_reference(
    workload: Workload, *, headers: Optional[Dict[str, str]] = None
) -> str:
    """``render_swf_text`` on the scalar row loop, always."""
    buf = StringIO()
    for key, value in _merged_headers(workload, headers).items():
        buf.write(f"; {key}: {value}\n")
    _render_rows_reference(workload, buf)
    return buf.getvalue()
