"""Static SVG rendering of paired ROC curves with ABROCA shading.

The output is a self-contained SVG document built by string assembly: no
plotting library, no randomness, fixed coordinate formatting, so identical
inputs produce identical bytes. The region between the two curves is shaded
as one polygon: curve A's points, then curve B's points reversed. SVG's
default nonzero fill rule fills every region between two crossings, whichever
curve is on top, so the shaded area is the ABROCA integral.
"""

from __future__ import annotations

import numpy as np

from .fairness import AbrocaResult

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


def _points(fpr, tpr) -> str:
    """SVG ``points`` of each (fpr, tpr) in pixels, as ``_px``/``_py`` format them."""
    fpr, tpr = np.ravel(fpr), np.ravel(tpr)
    xy = np.column_stack([_MARGIN_LEFT + fpr * _PLOT, _MARGIN_TOP + (1.0 - tpr) * _PLOT])
    return " ".join(["%.2f,%.2f"] * len(fpr)) % tuple(xy.ravel().tolist())


def _polyline(fpr, tpr, color: str, dasharray: str | None = None) -> str:
    coords = _points(fpr, tpr)
    dash = f' stroke-dasharray="{dasharray}"' if dasharray else ""
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="1.8"{dash}/>'
    )


def render_roc_plot(result: AbrocaResult) -> str:
    """SVG document of an audited pair: both ROC polylines, shaded
    between-curve region, legend with the pair's names, AUCs and ABROCA."""
    curve_a, curve_b = result.curve_a, result.curve_b
    label_a, label_b = _escape(result.group_a), _escape(result.group_b)
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

    # shaded region between the curves: along A, then back along B
    coords = _points(
        np.concatenate([curve_a.fpr, curve_b.fpr[::-1]]),
        np.concatenate([curve_a.tpr, curve_b.tpr[::-1]]),
    )
    parts.append(
        f'<polygon points="{coords}" fill="{_COLOR_SHADE}" fill-opacity="0.35" stroke="none"/>'
    )

    # chance diagonal, then the two curves on top
    parts.append(_polyline([0.0, 1.0], [0.0, 1.0], "#bbbbbb", dasharray="4,4"))
    parts.append(_polyline(curve_a.fpr, curve_a.tpr, _COLOR_A))
    parts.append(_polyline(curve_b.fpr, curve_b.tpr, _COLOR_B))

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
        (_COLOR_A, f"{label_a} (AUC = {result.auc_a:.4f})"),
        (_COLOR_B, f"{label_b} (AUC = {result.auc_b:.4f})"),
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
        f"ABROCA = {result.abroca:.4f}</text>"
    )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
