"""Rendering of Co-plot maps without a plotting library.

Three exports: a monospace ASCII map (what the experiment harness prints),
a CSV dump of coordinates and arrows (for downstream plotting), and a
self-contained SVG (hand-written markup, viewable in any browser).
"""

from __future__ import annotations

import io
from typing import List, Optional

import numpy as np

from repro.coplot.model import CoplotResult

__all__ = ["render_ascii_map", "coplot_to_csv", "coplot_to_svg", "coplot_to_svg_bytes"]


def render_ascii_map(
    result: CoplotResult,
    *,
    width: int = 72,
    height: int = 24,
    show_arrows: bool = True,
) -> str:
    """Draw the observation map (and arrow directions) as ASCII art.

    Observations appear as numbered markers with a legend below; arrows are
    listed with their compass angle and correlation since character cells
    are too coarse to draw rays faithfully.
    """
    if width < 16 or height < 8:
        raise ValueError("width must be >= 16 and height >= 8")
    coords = result.coords
    n = coords.shape[0]
    span = coords.max(axis=0) - coords.min(axis=0)
    span = np.where(span == 0, 1.0, span)
    lo = coords.min(axis=0)

    grid = [[" "] * width for _ in range(height)]

    def place(x: float, y: float, marker: str) -> None:
        col = int(round((x - lo[0]) / span[0] * (width - len(marker) - 1)))
        row = int(round((1.0 - (y - lo[1]) / span[1]) * (height - 1)))
        col = min(max(col, 0), width - len(marker))
        row = min(max(row, 0), height - 1)
        for offset, ch in enumerate(marker):
            if grid[row][col + offset] == " ":
                grid[row][col + offset] = ch

    for i in range(n):
        place(coords[i, 0], coords[i, 1], f"[{i}]")

    buf = io.StringIO()
    buf.write("+" + "-" * width + "+\n")
    for row in grid:
        buf.write("|" + "".join(row) + "|\n")
    buf.write("+" + "-" * width + "+\n")
    buf.write("Observations: ")
    buf.write("  ".join(f"[{i}]={lbl}" for i, lbl in enumerate(result.labels)))
    buf.write("\n")
    if show_arrows and result.arrows:
        buf.write("Arrows (angle deg, correlation): ")
        buf.write(
            "  ".join(
                f"{a.sign}:{a.angle_degrees:.0f}°(r={a.correlation:.2f})"
                for a in result.arrows
            )
        )
        buf.write("\n")
    buf.write(result.summary())
    buf.write("\n")
    return buf.getvalue()


def coplot_to_csv(result: CoplotResult) -> str:
    """Dump observations and arrows as two CSV sections.

    Section ``observation`` rows: label, x, y.  Section ``arrow`` rows:
    sign, dx, dy, correlation.
    """
    buf = io.StringIO()
    buf.write("kind,label,x,y,correlation\n")
    for lbl, (x, y) in zip(result.labels, result.coords):
        buf.write(f"observation,{lbl},{x:.6g},{y:.6g},\n")
    for arrow in result.arrows:
        dx, dy = arrow.direction
        buf.write(f"arrow,{arrow.sign},{dx:.6g},{dy:.6g},{arrow.correlation:.4f}\n")
    return buf.getvalue()


def coplot_to_svg(
    result: CoplotResult,
    *,
    size: int = 640,
    margin: int = 60,
    arrow_length: Optional[float] = None,
) -> str:
    """Render the map as a standalone SVG document.

    Points are dots with labels; arrows emerge from the centre of gravity,
    their length proportional to the variable's correlation (so well-fitting
    variables stand out, as in published Co-plot figures).
    """
    coords = result.coords
    span = coords.max(axis=0) - coords.min(axis=0)
    span = np.where(span == 0, 1.0, span)
    lo = coords.min(axis=0)
    inner = size - 2 * margin
    scale = inner / float(span.max())

    def to_px(x: float, y: float) -> tuple:
        px = margin + (x - lo[0]) * scale
        py = size - margin - (y - lo[1]) * scale
        return px, py

    if arrow_length is None:
        arrow_length = 0.35 * float(span.max())

    cx, cy = to_px(*result.centroid())
    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f"<title>{_esc(result.summary())}</title>",
    ]
    for arrow in result.arrows:
        if np.allclose(arrow.direction, 0):
            continue
        length = arrow_length * max(arrow.correlation, 0.05) * scale
        ex = cx + arrow.direction[0] * length
        ey = cy - arrow.direction[1] * length
        parts.append(
            f'<line x1="{cx:.1f}" y1="{cy:.1f}" x2="{ex:.1f}" y2="{ey:.1f}" '
            'stroke="#b22222" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{ex:.1f}" y="{ey:.1f}" font-size="12" fill="#b22222" '
            f'font-family="monospace">{_esc(arrow.sign)}</text>'
        )
    for lbl, (x, y) in zip(result.labels, coords):
        px, py = to_px(x, y)
        parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="4" fill="#1f4e8c"/>')
        parts.append(
            f'<text x="{px + 6:.1f}" y="{py - 6:.1f}" font-size="12" '
            f'font-family="monospace" fill="#1f4e8c">{_esc(lbl)}</text>'
        )
    parts.append(
        f'<text x="{margin}" y="{size - 12}" font-size="12" font-family="monospace" '
        f'fill="#444">alienation={result.alienation:.3f} '
        f"avg r={result.average_correlation:.3f}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts)


def coplot_to_svg_bytes(
    result: CoplotResult,
    *,
    size: int = 640,
    margin: int = 60,
    arrow_length: Optional[float] = None,
) -> bytes:
    """Render the map as UTF-8 SVG bytes, entirely in memory.

    The transport-ready form of :func:`coplot_to_svg`: an HTTP handler
    or file writer gets the finished document without a tempfile
    round-trip (pair with ``atomic_write_bytes`` to persist it).
    """
    doc = coplot_to_svg(result, size=size, margin=margin, arrow_length=arrow_length)
    return doc.encode("utf-8")


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
