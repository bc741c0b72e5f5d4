"""Minimal SVG line charts: polylines, axis labels, and rug ticks.

Kept dependency-free on purpose; the only figure this package draws is a
set of one-dimensional curves over the window with observation ticks along
the bottom edge.
"""

from __future__ import annotations

from typing import Sequence

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd"]


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def line_chart(path, x: Sequence[float], series: Sequence,
               ticks: Sequence[float], title: str, x_label: str,
               y_label: str) -> None:
    """Write an SVG chart of one or more (label, values) curves over x.

    ``ticks`` draws short vertical marks along the bottom edge (observation
    locations).  The output is standalone valid XML.
    """
    width, height = 860, 540
    xs = [float(v) for v in x]
    if not xs:
        raise ValueError("x grid is empty")
    ml, mr, mt, mb = 64, 24, 42, 56
    px0, px1 = ml, width - mr
    py0, py1 = mt, height - mb
    x_lo, x_hi = min(xs), max(xs)
    y_vals = [float(v) for _, values in series for v in values]
    if not y_vals:
        raise ValueError("no curve values to plot")
    y_lo = min(0.0, min(y_vals))
    y_hi = max(y_vals) * 1.08 or 1.0

    def to_px(xv, yv):
        fx = (xv - x_lo) / (x_hi - x_lo) if x_hi > x_lo else 0.5
        fy = (yv - y_lo) / (y_hi - y_lo) if y_hi > y_lo else 0.5
        return px0 + fx * (px1 - px0), py1 - fy * (py1 - py0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="16" font-family="sans-serif">{_escape(title)}</text>',
    ]
    # axes
    parts.append(f'<line x1="{px0}" y1="{py1}" x2="{px1}" y2="{py1}" '
                 'stroke="#000" stroke-width="1.2"/>')
    parts.append(f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py1}" '
                 'stroke="#000" stroke-width="1.2"/>')
    for i in range(5):
        yv = y_lo + (y_hi - y_lo) * i / 4
        _, py = to_px(x_lo, yv)
        parts.append(f'<line x1="{px0 - 4}" y1="{py:.2f}" x2="{px0}" '
                     f'y2="{py:.2f}" stroke="#000" stroke-width="1"/>')
        parts.append(f'<text x="{px0 - 8}" y="{py + 4:.2f}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">{yv:.2f}</text>')
        xv = x_lo + (x_hi - x_lo) * i / 4
        px, _ = to_px(xv, y_lo)
        parts.append(f'<line x1="{px:.2f}" y1="{py1}" x2="{px:.2f}" '
                     f'y2="{py1 + 4}" stroke="#000" stroke-width="1"/>')
        parts.append(f'<text x="{px:.2f}" y="{py1 + 18}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">{xv:.2f}</text>')
    parts.append(f'<text x="{(px0 + px1) / 2:.1f}" y="{height - 14}" '
                 f'text-anchor="middle" font-size="13" '
                 f'font-family="sans-serif">{_escape(x_label)}</text>')
    parts.append(f'<text x="18" y="{(py0 + py1) / 2:.1f}" '
                 f'text-anchor="middle" font-size="13" '
                 f'font-family="sans-serif" transform="rotate(-90 18 '
                 f'{(py0 + py1) / 2:.1f})">{_escape(y_label)}</text>')
    # curves and legend
    for idx, (label, values) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in
                       (to_px(xv, float(yv)) for xv, yv in zip(xs, values)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.8"/>')
        ly = py0 + 16 * idx
        parts.append(f'<line x1="{px1 - 130}" y1="{ly}" x2="{px1 - 104}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="2.5"/>')
        parts.append(f'<text x="{px1 - 98}" y="{ly + 4}" font-size="12" '
                     f'font-family="sans-serif">{_escape(str(label))}</text>')
    # observation rug
    for tv in ticks:
        px, _ = to_px(float(tv), y_lo)
        parts.append(f'<line x1="{px:.2f}" y1="{py1 - 10}" x2="{px:.2f}" '
                     f'y2="{py1}" stroke="#333" stroke-width="1.4" '
                     'class="tick"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
