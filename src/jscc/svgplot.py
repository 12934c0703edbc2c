"""Minimal deterministic SVG line charts.

Charts are plain polylines over a gridded dB/dB viewport.  The output is a
pure function of the input series, so regenerating from the same CSV data
yields byte-identical files.
"""

from __future__ import annotations

import math

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)

_WIDTH = 840
_HEIGHT = 560
_MARGIN_LEFT = 62.0
_MARGIN_RIGHT = 190.0
_MARGIN_TOP = 42.0
_MARGIN_BOTTOM = 52.0


def _escape(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _nice_step(span: float, target: int = 6) -> float:
    raw = span / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 1.0
    for mult in (1.0, 2.0, 5.0, 10.0):
        if mag * mult >= raw:
            return mag * mult
    return mag * 10.0


def _ticks(lo: float, hi: float) -> list:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * step:
        out.append(round(t, 10))
        t += step
    return out


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def svg_document(series, *, title: str, x_label: str, y_label: str) -> str:
    """Render line series to an SVG string.

    Each series is a dict with keys label, points (list of (x, y) pairs),
    and dashed (bool).  Dashed series are drawn with class "overlay",
    solid ones with class "curve".  Non-finite points are dropped.
    """
    cleaned = []
    xs, ys = [], []
    for item in series:
        pts = [(float(x), float(y)) for x, y in item["points"]
               if math.isfinite(float(x)) and math.isfinite(float(y))]
        cleaned.append({"label": str(item["label"]),
                        "points": pts,
                        "dashed": bool(item.get("dashed", False))})
        xs.extend(p[0] for p in pts)
        ys.extend(p[1] for p in pts)
    if xs:
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
    else:
        x0, x1, y0, y1 = 0.0, 1.0, 0.0, 1.0
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 1.0, x1 + 1.0
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 1.0, y1 + 1.0
    pad_y = 0.04 * (y1 - y0)
    y0, y1 = y0 - pad_y, y1 + pad_y

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x):
        return _MARGIN_LEFT + (x - x0) / (x1 - x0) * plot_w

    def sy(y):
        return _MARGIN_TOP + (y1 - y) / (y1 - y0) * plot_h

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
               f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">')
    out.append(f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    out.append(f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
               f'font-family="sans-serif" font-size="15">{_escape(title)}</text>')

    # grid and ticks
    for t in _ticks(x0, x1):
        px = sx(t)
        out.append(f'<line x1="{_fmt(px)}" y1="{_fmt(_MARGIN_TOP)}" '
                   f'x2="{_fmt(px)}" y2="{_fmt(_MARGIN_TOP + plot_h)}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(px)}" y="{_fmt(_MARGIN_TOP + plot_h + 18)}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{t:g}</text>')
    for t in _ticks(y0, y1):
        py = sy(t)
        out.append(f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(py)}" '
                   f'x2="{_fmt(_MARGIN_LEFT + plot_w)}" y2="{_fmt(py)}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(_MARGIN_LEFT - 8)}" y="{_fmt(py + 4)}" '
                   f'text-anchor="end" font-family="sans-serif" '
                   f'font-size="11">{t:g}</text>')
    out.append(f'<rect x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(_MARGIN_TOP)}" '
               f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" '
               f'fill="none" stroke="#333333" stroke-width="1"/>')

    # axis labels
    out.append(f'<text x="{_fmt(_MARGIN_LEFT + plot_w / 2)}" '
               f'y="{_fmt(_HEIGHT - 14)}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">{_escape(x_label)}</text>')
    out.append(f'<text x="18" y="{_fmt(_MARGIN_TOP + plot_h / 2)}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 18 {_fmt(_MARGIN_TOP + plot_h / 2)})">'
               f'{_escape(y_label)}</text>')

    # data
    for i, item in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        dash = ' stroke-dasharray="6,4"' if item["dashed"] else ""
        cls = "overlay" if item["dashed"] else "curve"
        if item["points"]:
            coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}"
                              for x, y in item["points"])
            out.append(f'<polyline class="{cls}" points="{coords}" fill="none" '
                       f'stroke="{color}" stroke-width="1.6"{dash}/>')
        ly = _MARGIN_TOP + 10 + 20 * i
        lx = _MARGIN_LEFT + plot_w + 14
        out.append(f'<line x1="{_fmt(lx)}" y1="{_fmt(ly)}" x2="{_fmt(lx + 26)}" '
                   f'y2="{_fmt(ly)}" stroke="{color}" stroke-width="1.6"{dash}/>')
        out.append(f'<text x="{_fmt(lx + 32)}" y="{_fmt(ly + 4)}" '
                   f'font-family="sans-serif" font-size="11">'
                   f'{_escape(item["label"])}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
