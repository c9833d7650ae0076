"""Plain-text table rendering used by the experiment harness.

The original paper presents its results as tables and 2-D scatter maps.  With
no plotting library available offline, every experiment renders its output as
monospace text; these helpers keep the formatting consistent across all of
them.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

__all__ = ["format_table"]

Cell = Union[str, float, int, None]


def _render_cell(value: Cell, float_fmt: str) -> str:
    if value is None:
        return "N/A"
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if np.isnan(value):
            return "N/A"
        return float_fmt.format(float(value))
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    *,
    float_fmt: str = "{:.4g}",
    title: Optional[str] = None,
) -> str:
    """Render *rows* as an aligned monospace table.

    Parameters
    ----------
    headers:
        Column names.
    rows:
        Iterable of row sequences; cells may be strings, numbers, ``None``
        (rendered ``N/A``) or NaN (also ``N/A``).
    float_fmt:
        ``str.format`` spec applied to floats.
    title:
        Optional caption printed above the table.

    The first (label) column is left-aligned, the rest right-aligned.
    """
    rendered = [[_render_cell(c, float_fmt) for c in row] for row in rows]
    for i, row in enumerate(rendered):
        if len(row) != len(headers):
            raise ValueError(
                f"row {i} has {len(row)} cells but there are {len(headers)} headers"
            )
    widths = [len(h) for h in headers]
    for row in rendered:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        parts = []
        for j, cell in enumerate(cells):
            parts.append(cell.ljust(widths[j]) if j == 0 else cell.rjust(widths[j]))
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in rendered)
    return "\n".join(lines)
