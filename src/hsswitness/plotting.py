"""Static SVG line plots: axes, legend, one %-format per polyline of whole arrays."""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams

WIDTH, HEIGHT = 800, 500
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 30, 50
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
#: html.escape(text, quote=False), without importing html and html.entities
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _ticks(lo: float, hi: float, n: int = 6) -> np.ndarray:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s for s in (1, 2, 5, 10) if s * mag >= raw) * mag
    first = np.ceil(lo / step) * step
    return np.arange(first, hi + step / 2, step)


def series_svg(tau: np.ndarray, series: dict[str, np.ndarray],
               title: str = "") -> str:
    """Render named series over tau as an SVG 1.1 document string.

    Raises ``InvalidParams`` on no series, on a ``tau`` that is not a finite 1-D
    grid with ``tau[0] < tau[-1]``, and on a series that is not finite, not of
    tau's shape or whose range overflows a float.
    """
    tau = np.asarray(tau, dtype=float)
    if not series:
        raise InvalidParams("series_svg needs at least one series")
    if (tau.ndim != 1 or tau.size < 2 or not np.all(np.isfinite(tau))
            or not tau[0] < tau[-1]):
        raise InvalidParams("tau must be a finite 1-D grid with tau[0] < tau[-1]")
    series = {name: np.asarray(v, dtype=float) for name, v in series.items()}
    for name, v in series.items():
        if v.shape != tau.shape:
            raise InvalidParams(f"series {name!r} has shape {v.shape}, "
                                f"tau has {tau.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidParams(f"series {name!r} is not finite")
    xlo, xhi = float(tau[0]), float(tau[-1])
    ylo = min(float(np.min(v)) for v in series.values())
    yhi = max(float(np.max(v)) for v in series.values())
    if yhi - ylo < 1e-12:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    if not np.isfinite(yhi - ylo):
        raise InvalidParams("the series' value range overflows a float")

    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - xlo) / (xhi - xlo) * pw

    def py(y):
        return MARGIN_T + (yhi - y) / (yhi - ylo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(f'<text x="{WIDTH / 2:.0f}" y="20" '
                     f'text-anchor="middle">{title.translate(_XML_TEXT)}'
                     '</text>')
    for xt in _ticks(xlo, xhi):
        parts.append(f'<line x1="{px(xt):.1f}" y1="{MARGIN_T + ph}" '
                     f'x2="{px(xt):.1f}" y2="{MARGIN_T + ph + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(xt):.1f}" y="{MARGIN_T + ph + 18}" '
                     f'text-anchor="middle">{xt:g}</text>')
    for yt in _ticks(ylo, yhi):
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{py(yt):.1f}" '
                     f'x2="{MARGIN_L}" y2="{py(yt):.1f}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{py(yt) + 4:.1f}" '
                     f'text-anchor="end">{yt:g}</text>')
    parts.append(f'<text x="{MARGIN_L + pw / 2:.0f}" y="{HEIGHT - 8}" '
                 f'text-anchor="middle">tau</text>')

    x, points = px(tau), " ".join(["%.2f,%.2f"] * tau.size)
    for k, (name, vals) in enumerate(series.items()):
        color = COLORS[k % len(COLORS)]
        pts = points % tuple(np.column_stack((x, py(vals))).ravel().tolist())
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_T + 20 + 18 * k
        lx = MARGIN_L + pw + 15
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 30}" y="{ly}">'
                     f'{str(name).translate(_XML_TEXT)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
