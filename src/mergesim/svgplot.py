"""Static SVG rendering of lateral-vs-longitudinal trajectories."""

from typing import Dict, List

from .road import LaneGeometry

# Fixed palette, cycled by vehicle order of first appearance.
PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#000000",
           "#8c564b", "#e377c2")

WIDTH = 900
HEIGHT = 360
MARGIN = 45.0

# Not xml.sax.saxutils.escape: that module imports urllib.request and ssl.
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _span(values, fallback):
    if not values:
        return fallback
    lo, hi = min(values), max(values)
    if hi - lo < 1e-9:
        lo, hi = lo - 1.0, hi + 1.0
    return lo, hi


def render(rows: List[dict], geometry: LaneGeometry) -> str:
    """One polyline per vehicle over the lane diagram; deterministic output."""
    half = geometry.lane_width / 2.0
    ys = [r["y_long"] for r in rows]
    y_lo, y_hi = _span(ys, (0.0, geometry.hard_end + 20.0))
    y_lo = min(y_lo, 0.0)
    y_hi = max(y_hi, geometry.hard_end + 10.0)
    x_lo = geometry.centers[0] - half - 1.0
    x_hi = geometry.centers[-1] + half + 1.0

    def sx(y_long):  # longitudinal position maps to horizontal pixels
        return MARGIN + (y_long - y_lo) / (y_hi - y_lo) * (WIDTH - 2 * MARGIN)

    def sy(x_lat):  # lateral position maps to vertical pixels, lane 0 at bottom
        return HEIGHT - MARGIN - (x_lat - x_lo) / (x_hi - x_lo) * (HEIGHT - 2 * MARGIN)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
             f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
             '<rect width="100%" height="100%" fill="white"/>']

    # Lane boundaries; the merge lane exists only along its entrance.
    merge_lo = geometry.centers[-1] - half
    for i, center in enumerate(geometry.centers):
        for edge in (center - half, center + half):
            if i == geometry.merge_lane or (i == geometry.merge_target_lane
                                            and abs(edge - merge_lo) < 1e-9):
                x1, x2 = sx(max(y_lo, 0.0)), sx(min(y_hi, geometry.hard_end))
            else:
                x1, x2 = sx(y_lo), sx(y_hi)
            y_px = sy(edge)
            parts.append(f'<line x1="{x1:.2f}" y1="{y_px:.2f}" x2="{x2:.2f}" '
                         f'y2="{y_px:.2f}" stroke="#999999" stroke-width="1" '
                         f'stroke-dasharray="6,4"/>')

    # Merge entrance and hard-end markers.
    for label, y_mark in (("entrance", geometry.merge_start),
                          ("end", geometry.entrance_end),
                          ("hard end", geometry.hard_end)):
        xp = sx(y_mark)
        parts.append(f'<line x1="{xp:.2f}" y1="{sy(merge_lo):.2f}" '
                     f'x2="{xp:.2f}" y2="{sy(geometry.centers[-1] + half):.2f}" '
                     f'stroke="#cc8800" stroke-width="1.5"/>')
        parts.append(f'<text x="{xp + 3:.2f}" y="{sy(geometry.centers[-1] + half) - 4:.2f}" '
                     f'font-size="10" fill="#cc8800">{label}</text>')

    by_vehicle: Dict[str, List[dict]] = {}  # in order of first appearance
    for r in rows:
        by_vehicle.setdefault(r["id"], []).append(r)

    for i, (vid, track) in enumerate(by_vehicle.items()):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{sx(r['y_long']):.2f},{sy(r['x_lat']):.2f}"
                       for r in track)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        last = track[-1]
        parts.append(f'<text x="{sx(last["y_long"]) + 3:.2f}" '
                     f'y="{sy(last["x_lat"]) - 3:.2f}" font-size="10" '
                     f'fill="{color}">{vid.translate(_XML_TEXT)}</text>')

    parts.append(f'<text x="{MARGIN:.2f}" y="{HEIGHT - 10:.2f}" font-size="11" '
                 f'fill="#333333">longitudinal position (m)</text>')
    parts.append(f'<text x="6" y="{MARGIN - 10:.2f}" font-size="11" '
                 f'fill="#333333">lateral position (m)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
