"""Minimal SVG 1.1 line charts: axes, ticks, polylines, legend.

Data files are the primary artifact; these charts exist so a sweep can be
eyeballed without external plotting dependencies. Output is a plain string,
deterministic for identical input.
"""

from __future__ import annotations

import math

__all__ = ["render_line_chart"]

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)

_WIDTH, _HEIGHT = 720, 480
_N_TICKS = 5

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<!DOCTYPE svg PUBLIC "-//W3C//DTD SVG 1.1//EN" '
    '"http://www.w3.org/Graphics/SVG/1.1/DTD/svg11.dtd">\n'
)


def _ticks(lo: float, hi: float) -> list:
    return [lo + (hi - lo) * i / (_N_TICKS - 1) for i in range(_N_TICKS)]


def _log_ticks(lo: float, hi: float) -> list:
    first = math.ceil(math.log10(lo) - 1e-9)
    last = math.floor(math.log10(hi) + 1e-9)
    ticks = [10.0**d for d in range(first, last + 1)]
    return ticks if ticks else [lo, hi]


def _escape(text: str) -> str:
    # What xml.sax.saxutils.escape does; importing that module pulls in
    # urllib.request, about 40 ms of every CLI start.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_line_chart(
    curves,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    log_x: bool = False,
) -> str:
    """Render labeled (x, y) curves as an SVG line chart string.

    ``curves`` is an iterable of objects with ``label`` and ``rows``
    attributes (as produced by the sweep module). With ``log_x`` the
    horizontal axis is base-10 logarithmic and all x values must be > 0.
    The title, axis labels and curve labels are plain text: ``&``, ``<``
    and ``>`` are escaped.
    """
    curves = list(curves)
    if not curves or all(not c.rows for c in curves):
        raise ValueError("nothing to plot")
    xs = [x for c in curves for x, _ in c.rows]
    ys = [y for c in curves for _, y in c.rows]
    if log_x and min(xs) <= 0:
        raise ValueError("log_x requires every x > 0")

    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    ml, mr, mt, mb = 64, 16, 34 if title else 16, 46
    pw, ph = _WIDTH - ml - mr, _HEIGHT - mt - mb

    def tx(x: float) -> float:
        if log_x:
            f = (math.log10(x) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo))
        else:
            f = (x - x_lo) / (x_hi - x_lo)
        return ml + f * pw

    def ty(y: float) -> float:
        return mt + (1.0 - (y - y_lo) / (y_hi - y_lo)) * ph

    out = [_HEADER]
    out.append(
        f'<svg version="1.1" xmlns="http://www.w3.org/2000/svg" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
    )
    out.append(f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>\n')
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(title)}</text>\n'
        )
    out.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="black"/>\n'
    )

    xticks = _log_ticks(x_lo, x_hi) if log_x else _ticks(x_lo, x_hi)
    for v in xticks:
        px = tx(v)
        out.append(f'<line x1="{px:.1f}" y1="{mt + ph}" x2="{px:.1f}" y2="{mt + ph + 4}" stroke="black"/>\n')
        out.append(
            f'<text x="{px:.1f}" y="{mt + ph + 17}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(v)}</text>\n'
        )
    for v in _ticks(y_lo, y_hi):
        py = ty(v)
        out.append(f'<line x1="{ml - 4}" y1="{py:.1f}" x2="{ml}" y2="{py:.1f}" stroke="black"/>\n')
        out.append(
            f'<text x="{ml - 7}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(v)}</text>\n'
        )
    if x_label:
        out.append(
            f'<text x="{ml + pw / 2:.1f}" y="{_HEIGHT - 8}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_escape(x_label)}</text>\n'
        )
    if y_label:
        out.append(
            f'<text x="14" y="{mt + ph / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {mt + ph / 2:.1f})">{_escape(y_label)}</text>\n'
        )

    for i, c in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{tx(x):.2f},{ty(y):.2f}" for x, y in c.rows)
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>\n')

    ly = mt + 14
    for i, c in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        out.append(
            f'<line x1="{ml + pw - 150}" y1="{ly - 4}" x2="{ml + pw - 128}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>\n'
        )
        out.append(
            f'<text x="{ml + pw - 122}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{_escape(c.label)}</text>\n'
        )
        ly += 15

    out.append("</svg>\n")
    return "".join(out)
