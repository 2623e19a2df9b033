"""Minimal SVG 1.1 line charts: axes, ticks, polylines, legend.

Data files are the primary artifact; these charts exist so a sweep can be
eyeballed without external plotting dependencies. Output is a plain string,
deterministic for identical input.

One helper, ``_text``, writes every ``<text>`` element (title, tick labels,
axis labels, legend), and one map places every x: the axis transform,
``math.log10`` on a log axis and the identity otherwise, is chosen once per
chart, not per point. A log axis labels each decade, and on a span of more
than ten decades every n-th, n a step of 1, 2 or 5 times a power of ten, so
that at most ten labels share the axis.
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
_MAX_LOG_TICKS = 10

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<!DOCTYPE svg PUBLIC "-//W3C//DTD SVG 1.1//EN" '
    '"http://www.w3.org/Graphics/SVG/1.1/DTD/svg11.dtd">\n'
)


def _ticks(lo: float, hi: float) -> list:
    return [lo + (hi - lo) * i / (_N_TICKS - 1) for i in range(_N_TICKS)]


def _log_ticks(lo: float, hi: float) -> list:
    # Every decade on a span of at most _MAX_LOG_TICKS of them; on a wider
    # one, the decades that are multiples of the least step of 1, 2 or 5
    # times a power of ten that keeps at most that many. The float range
    # spans 632 decades, so a step of 100 always does. A decade is on the
    # axis where the log10 of its float is, within 1e-9: a subnormal
    # decade's float lies off 10^d (10.0**-320 reads -320.0000048), so the
    # decade beyond each end is tried by its float as well.
    a, b = math.log10(lo) - 1e-9, math.log10(hi) + 1e-9
    first, last = math.ceil(a), math.floor(b)
    if first > -323 and math.log10(10.0 ** (first - 1)) >= a:
        first -= 1
    if last < 308 and math.log10(10.0 ** (last + 1)) <= b:
        last += 1
    for step in (m * 10**k for k in range(3) for m in (1, 2, 5)):
        ticks = [10.0**d for d in range(-(-first // step) * step, last + 1, step)]
        if len(ticks) <= _MAX_LOG_TICKS:
            break
    return ticks if ticks else [lo, hi]


def _escape(text: str) -> str:
    # What xml.sax.saxutils.escape does; importing that module pulls in
    # urllib.request, about 40 ms of every CLI start.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _text(x, y, size: int, body: str, anchor: str = "middle", extra: str = "") -> str:
    # x and y are written as given; an empty anchor leaves the attribute out.
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
        f'font-size="{size}"{extra}>{_escape(body)}</text>\n'
    )


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

    f = math.log10 if log_x else (lambda v: v)
    f_lo, f_span = f(x_lo), f(x_hi) - f(x_lo)

    def tx(x: float) -> float:
        return ml + (f(x) - f_lo) / f_span * pw

    def ty(y: float) -> float:
        return mt + (1.0 - (y - y_lo) / (y_hi - y_lo)) * ph

    out = [_HEADER]
    out.append(
        f'<svg version="1.1" xmlns="http://www.w3.org/2000/svg" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
    )
    out.append(f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>\n')
    if title:
        out.append(_text(f"{_WIDTH / 2:.1f}", 20, 14, title))
    out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="black"/>\n')

    xticks = _log_ticks(x_lo, x_hi) if log_x else _ticks(x_lo, x_hi)
    for v in xticks:
        px = f"{tx(v):.1f}"
        out.append(f'<line x1="{px}" y1="{mt + ph}" x2="{px}" y2="{mt + ph + 4}" stroke="black"/>\n')
        out.append(_text(px, mt + ph + 17, 11, _fmt(v)))
    for v in _ticks(y_lo, y_hi):
        py = ty(v)
        out.append(f'<line x1="{ml - 4}" y1="{py:.1f}" x2="{ml}" y2="{py:.1f}" stroke="black"/>\n')
        out.append(_text(ml - 7, f"{py + 4:.1f}", 11, _fmt(v), "end"))
    if x_label:
        out.append(_text(f"{ml + pw / 2:.1f}", _HEIGHT - 8, 12, x_label))
    if y_label:
        yc = f"{mt + ph / 2:.1f}"
        out.append(_text(14, yc, 12, y_label, extra=f' transform="rotate(-90 14 {yc})"'))

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
        out.append(_text(ml + pw - 122, ly, 11, c.label, anchor=""))
        ly += 15

    out.append("</svg>\n")
    return "".join(out)
