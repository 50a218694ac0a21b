"""Static SVG rendering of paired ROC curves with ABROCA shading.

The output is a self-contained SVG document built by string assembly: no
plotting library, no randomness, fixed coordinate formatting, so identical
inputs produce identical bytes. The region between the two curves is shaded
quad by quad using the same crossing-split intervals the ABROCA integral
uses, so the picture and the number always agree.
"""

from __future__ import annotations

from .fairness import difference_intervals
from .metrics import RocCurve, auc_trapezoid

# plot geometry (pixels)
_MARGIN_LEFT = 64.0
_MARGIN_TOP = 24.0
_MARGIN_RIGHT = 24.0
_MARGIN_BOTTOM = 56.0
_PLOT = 420.0

_COLOR_A = "#1f6fb4"
_COLOR_B = "#c23b22"
_COLOR_SHADE = "#9a9a9a"
_COLOR_GRID = "#d8d8d8"
_COLOR_TEXT = "#222222"


def _escape(text: str) -> str:
    """Escape &, < and > for SVG text content (what xml.sax.saxutils.escape
    does, without importing its urllib, http and email dependencies)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _px(fpr: float) -> str:
    return f"{_MARGIN_LEFT + fpr * _PLOT:.2f}"


def _py(tpr: float) -> str:
    return f"{_MARGIN_TOP + (1.0 - tpr) * _PLOT:.2f}"


def _polyline(points, color: str, dasharray: str | None = None) -> str:
    coords = " ".join(f"{_px(x)},{_py(y)}" for x, y in points)
    dash = f' stroke-dasharray="{dasharray}"' if dasharray else ""
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="1.8"{dash}/>'
    )


def render_roc_plot(
    curve_a: RocCurve,
    curve_b: RocCurve,
    labels: tuple[str, str],
    abroca_value: float,
) -> str:
    """SVG document: both ROC polylines, shaded between-curve region, legend."""
    label_a, label_b = (_escape(str(s)) for s in labels)
    auc_a = auc_trapezoid(curve_a)
    auc_b = auc_trapezoid(curve_b)
    width = _MARGIN_LEFT + _PLOT + _MARGIN_RIGHT
    height = _MARGIN_TOP + _PLOT + _MARGIN_BOTTOM

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>',
    ]

    # gridlines and tick labels every 0.25
    for i in range(5):
        v = i / 4.0
        parts.append(
            f'<line x1="{_px(v)}" y1="{_py(0.0)}" x2="{_px(v)}" y2="{_py(1.0)}" '
            f'stroke="{_COLOR_GRID}" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{_px(0.0)}" y1="{_py(v)}" x2="{_px(1.0)}" y2="{_py(v)}" '
            f'stroke="{_COLOR_GRID}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_px(v)}" y="{float(_py(0.0)) + 18:.2f}" font-size="12" '
            f'fill="{_COLOR_TEXT}" text-anchor="middle" '
            f'font-family="sans-serif">{v:.2f}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8:.2f}" y="{float(_py(v)) + 4:.2f}" '
            f'font-size="12" fill="{_COLOR_TEXT}" text-anchor="end" '
            f'font-family="sans-serif">{v:.2f}</text>'
        )

    # shaded region between the curves, one quad per crossing-free interval
    for x0, x1, ya0, ya1, yb0, yb1 in difference_intervals(curve_a, curve_b):
        quad = (
            f"{_px(x0)},{_py(ya0)} {_px(x1)},{_py(ya1)} "
            f"{_px(x1)},{_py(yb1)} {_px(x0)},{_py(yb0)}"
        )
        parts.append(
            f'<polygon points="{quad}" fill="{_COLOR_SHADE}" fill-opacity="0.35" '
            f'stroke="none"/>'
        )

    # chance diagonal, then the two curves on top
    parts.append(_polyline([(0.0, 0.0), (1.0, 1.0)], "#bbbbbb", dasharray="4,4"))
    parts.append(_polyline(curve_a.points, _COLOR_A))
    parts.append(_polyline(curve_b.points, _COLOR_B))

    # frame
    parts.append(
        f'<rect x="{_px(0.0)}" y="{_py(1.0)}" width="{_PLOT:.2f}" '
        f'height="{_PLOT:.2f}" fill="none" stroke="{_COLOR_TEXT}" stroke-width="1"/>'
    )

    # axis titles
    parts.append(
        f'<text x="{_MARGIN_LEFT + _PLOT / 2:.2f}" y="{height - 12:.2f}" '
        f'font-size="13" fill="{_COLOR_TEXT}" text-anchor="middle" '
        f'font-family="sans-serif">False positive rate</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_TOP + _PLOT / 2:.2f}" font-size="13" '
        f'fill="{_COLOR_TEXT}" text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + _PLOT / 2:.2f})">'
        f"True positive rate</text>"
    )

    # legend, top-left inside the frame
    lx = _MARGIN_LEFT + 14.0
    ly = _MARGIN_TOP + 18.0
    legend = [
        (_COLOR_A, f"{label_a} (AUC = {auc_a:.4f})"),
        (_COLOR_B, f"{label_b} (AUC = {auc_b:.4f})"),
    ]
    for i, (color, text) in enumerate(legend):
        y = ly + i * 18.0
        parts.append(
            f'<line x1="{lx:.2f}" y1="{y - 4:.2f}" x2="{lx + 22:.2f}" '
            f'y2="{y - 4:.2f}" stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(
            f'<text x="{lx + 28:.2f}" y="{y:.2f}" font-size="12" '
            f'fill="{_COLOR_TEXT}" font-family="sans-serif">{text}</text>'
        )
    parts.append(
        f'<text x="{lx:.2f}" y="{ly + 40:.2f}" font-size="12" '
        f'fill="{_COLOR_TEXT}" font-family="sans-serif" font-weight="bold">'
        f"ABROCA = {abroca_value:.4f}</text>"
    )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
