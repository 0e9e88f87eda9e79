"""Minimal self-contained SVG line plots.

The CSV files are the authoritative artifacts; these plots exist so a run
can be eyeballed without any plotting stack.  Straight polylines, linear
or decade-log vertical axis, 1-2-5 tick ladder, small legend.  Series
longer than a couple of thousand points are thinned for file size (the
curves here are smooth at the sampling period).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_plot", "write_plot"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf",
            "#8c564b", "#7f7f7f"]
_MAX_POINTS = 2000
_LOG_FLOOR = 1e-18  # nonpositive values are dropped on a log axis


def escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for an SVG text node, as
    ``xml.sax.saxutils.escape`` does; quotes stay as they are."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_ticks(lo: float, hi: float, target: int = 6):
    """Tick positions on the 1-2-5 ladder covering [lo, hi]."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    if hi <= lo:
        pad = max(abs(lo), 1.0) * 0.5
        lo, hi = lo - pad, hi + pad
    raw = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 0.5 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks or [lo, hi]


def _fmt(v: float) -> str:
    if v == 0.0:
        return "0"
    a = abs(v)
    if 1e-3 <= a < 1e5:
        s = f"{v:.6g}"
    else:
        s = f"{v:.2e}"
    return s


def _thin(x: np.ndarray, y: np.ndarray):
    if len(x) <= _MAX_POINTS:
        return x, y
    idx = np.unique(np.linspace(0, len(x) - 1, _MAX_POINTS).astype(int))
    return x[idx], y[idx]


def line_plot(
    series,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    width: int = 760,
    height: int = 480,
    ylog: bool = False,
) -> str:
    """Render ``series = [(label, x, y), ...]`` to an SVG string."""
    margin_l, margin_r, margin_t, margin_b = 74, 16, 34, 48
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    prepared = []
    for label, x, y in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if ylog:
            keep &= y > _LOG_FLOOR
        x, y = x[keep], y[keep]
        if ylog:
            y = np.log10(y)
        if x.size:
            prepared.append((label, *_thin(x, y)))
    if prepared:
        x_lo = min(x.min() for _, x, _ in prepared)
        x_hi = max(x.max() for _, x, _ in prepared)
        y_lo = min(y.min() for _, _, y in prepared)
        y_hi = max(y.max() for _, _, y in prepared)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    if ylog:
        lo_d = math.floor(y_lo)
        hi_d = math.ceil(y_hi)
        step = max(1, int(math.ceil((hi_d - lo_d) / 8)))
        y_ticks = list(range(int(lo_d), int(hi_d) + 1, step))
        y_lo, y_hi = float(lo_d), float(hi_d) if hi_d > lo_d else float(lo_d) + 1.0
    else:
        y_ticks = _nice_ticks(y_lo, y_hi)
    x_ticks = _nice_ticks(x_lo, x_hi)

    def sx(v):
        return margin_l + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return margin_t + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
            f'font-size="14">{escape(title)}</text>'
        )
    # grid and ticks
    for v in x_ticks:
        if not x_lo <= v <= x_hi:
            continue
        X = sx(v)
        parts.append(
            f'<line x1="{X:.1f}" y1="{margin_t}" x2="{X:.1f}" '
            f'y2="{margin_t + plot_h}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{X:.1f}" y="{margin_t + plot_h + 16}" '
            f'text-anchor="middle">{escape(_fmt(v))}</text>'
        )
    for v in y_ticks:
        if not y_lo - 1e-12 <= v <= y_hi + 1e-12:
            continue
        Y = sy(v)
        label = f"1e{int(v)}" if ylog else _fmt(v)
        parts.append(
            f'<line x1="{margin_l}" y1="{Y:.1f}" x2="{margin_l + plot_w}" '
            f'y2="{Y:.1f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{margin_l - 6}" y="{Y + 4:.1f}" '
            f'text-anchor="end">{escape(label)}</text>'
        )
    # axes
    parts.append(
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black"/>'
    )
    if xlabel:
        parts.append(
            f'<text x="{margin_l + plot_w / 2:.1f}" y="{height - 10}" '
            f'text-anchor="middle">{escape(xlabel)}</text>'
        )
    if ylabel:
        yc = margin_t + plot_h / 2
        parts.append(
            f'<text x="16" y="{yc:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {yc:.1f})">{escape(ylabel)}</text>'
        )
    # curves
    for i, (label, x, y) in enumerate(prepared):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(sx(x).tolist(), sy(y).tolist()))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.4"/>'
        )
    # legend
    lx = margin_l + 10
    ly = margin_t + 8
    for i, (label, _, _) in enumerate(prepared):
        color = _PALETTE[i % len(_PALETTE)]
        Y = ly + 15 * i
        parts.append(
            f'<line x1="{lx}" y1="{Y}" x2="{lx + 18}" y2="{Y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 24}" y="{Y + 4}">{escape(str(label))}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_plot(path, series, **kwargs):
    svg = line_plot(series, **kwargs)
    with open(path, "w") as fh:
        fh.write(svg)
    return path
