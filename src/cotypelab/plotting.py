"""Self-contained SVG line plots, deterministic byte-for-byte.

No plotting dependency: the writer lays out axes, ticks, polylines and
a legend with fixed-precision coordinates, so identical series always
produce identical files.
"""
from __future__ import annotations

import math
from collections.abc import Mapping, Sized

from .errors import EmptySeriesError, PreconditionViolationError

WIDTH = 640
HEIGHT = 420
MARGIN_L = 72
MARGIN_R = 24
MARGIN_T = 40
MARGIN_B = 56
PALETTE = ["#1f6fb2", "#c23b22", "#2e8b57", "#8a2be2", "#b8860b"]
N_TICKS = 5


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _label(v: float) -> str:
    out = f"{v:.4g}"
    return "0" if out == "-0" else out


def _pair(entry, what: str) -> tuple:
    """entry's two items; a mapping, a string or any other length is refused."""
    if (isinstance(entry, (str, bytes, Mapping))
            or not isinstance(entry, Sized) or len(entry) != 2):
        raise PreconditionViolationError(f"{what} is not a pair: {entry!r}")
    return tuple(entry)


def _normalize_series(series) -> list[tuple[str, list[tuple[float, float]]]]:
    out = []
    for entry in series:
        label, pts = _pair(entry, "series entry (label, points)")
        pts = [tuple(map(float, _pair(pt, f"point of {label!r}"))) for pt in pts]
        for x, y in pts:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise PreconditionViolationError(
                    f"non-finite point ({x}, {y}) in series {label!r}"
                )
        if pts:
            out.append((str(label), pts))
    if not out:
        raise EmptySeriesError("plot emission needs at least one data point")
    return out


def _bounds(all_pts, reference) -> tuple[float, float, float, float]:
    xs = [p[0] for p in all_pts]
    ys = [p[1] for p in all_pts]
    if reference is not None:
        ys.append(float(reference[1]))
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 <= 0:
        x0, x1 = x0 - 1.0, x1 + 1.0
    if y1 - y0 <= 0:
        pad = max(abs(y0), 1.0) * 0.5
        y0, y1 = y0 - pad, y1 + pad
    # breathing room so markers do not sit on the frame
    dx, dy = 0.05 * (x1 - x0), 0.08 * (y1 - y0)
    return x0 - dx, x1 + dx, y0 - dy, y1 + dy


def emit_plot(series, path, *, title: str = "", xlabel: str = "",
              ylabel: str = "", reference: tuple[str, float] | None = None) -> str:
    """Write an SVG line plot and return the path.

    series: iterable of (label, [(x, y), ...]) pairs. reference: optional (label, y) horizontal
    guide line. Raises EmptySeriesError when no points exist at all, and
    PreconditionViolationError for an entry or point that is not a pair.
    """
    named = _normalize_series(series)
    all_pts = [p for _, pts in named for p in pts]
    x0, x1, y0, y1 = _bounds(all_pts, reference)
    iw = WIDTH - MARGIN_L - MARGIN_R
    ih = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - x0) / (x1 - x0) * iw

    def sy(y: float) -> float:
        return MARGIN_T + (y1 - y) / (y1 - y0) * ih

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{iw}" height="{ih}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_escape(title)}</text>'
        )
    for i in range(N_TICKS):
        t = i / (N_TICKS - 1)
        xv = x0 + t * (x1 - x0)
        yv = y0 + t * (y1 - y0)
        px = _fmt(sx(xv))
        py = _fmt(sy(yv))
        parts.append(
            f'<line x1="{px}" y1="{HEIGHT - MARGIN_B}" x2="{px}" '
            f'y2="{HEIGHT - MARGIN_B + 5}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{px}" y="{HEIGHT - MARGIN_B + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_label(xv)}</text>'
        )
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{py}" x2="{MARGIN_L}" '
            f'y2="{py}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 9}" y="{py}" text-anchor="end" '
            f'dominant-baseline="middle" font-family="sans-serif" '
            f'font-size="11">{_label(yv)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{MARGIN_L + iw // 2}" y="{HEIGHT - 14}" '
            'text-anchor="middle" font-family="sans-serif" '
            f'font-size="13">{_escape(xlabel)}</text>'
        )
    if ylabel:
        cx, cy = 20, MARGIN_T + ih // 2
        parts.append(
            f'<text x="{cx}" y="{cy}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 {cx} {cy})">{_escape(ylabel)}</text>'
        )
    if reference is not None:
        ref_label, ref_y = reference
        py = _fmt(sy(float(ref_y)))
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{py}" x2="{MARGIN_L + iw}" y2="{py}" '
            'stroke="#888888" stroke-width="1" stroke-dasharray="6,4"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L + iw - 4}" y="{_fmt(float(py) - 5)}" '
            'text-anchor="end" font-family="sans-serif" font-size="11" '
            f'fill="#666666">{_escape(str(ref_label))}</text>'
        )
    for idx, (label, pts) in enumerate(named):
        color = PALETTE[idx % len(PALETTE)]
        if len(pts) > 1:
            coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
        for x, y in pts:
            parts.append(
                f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="2.8" '
                f'fill="{color}"/>'
            )
        if label:
            ly = MARGIN_T + 16 + 16 * idx
            lx = MARGIN_L + 10
            parts.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" '
                f'font-size="11">{_escape(label)}</text>'
            )
    parts.append("</svg>")
    data = "\n".join(parts) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data)
    return str(path)


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
