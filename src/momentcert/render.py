"""Deterministic SVG rendering of 2-dimensional polytopes.

All geometry is computed with exact rationals and converted to fixed
two-decimal canvas coordinates at the last moment, so the byte output is a
pure function of the input.  No timestamps, no environment leakage.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MomentcertError
from .polytope import Polytope, equidistant_point

CANVAS = 480
PAD_NUM, PAD_DEN = 1, 4  # padding: one quarter of the larger extent


def _angle_key(dx, dy):
    """Exact sort key for the counterclockwise angle of (dx, dy) from 0.

    sgn(dx) * dx^2 / |d|^2 is sgn(cos) * cos^2, which rises with the cosine.
    The cosine falls as the angle grows through the upper half-plane, angles
    in [0, pi), so the key is negated there; it rises through the lower one.
    """
    # no radius tie-break: the ring is sorted only for a compact polygon,
    # whose centroid is interior, and of two vertices on one ray from an
    # interior point the nearer would be interior, not a vertex
    c = dx * abs(dx) / (dx * dx + dy * dy)
    return (0, -c) if dy > 0 or (dy == 0 and dx > 0) else (1, c)


def _clip_line_to_box(normal, offset, box):
    """Endpoints of {<x, normal> + offset = 0} clipped to the box, or None."""
    (x0, x1), (y0, y1) = box
    a, b = normal
    points = []
    # intersect with the four box edges
    if a != 0:
        for y in (y0, y1):
            x = Fraction(-offset - b * y, a)
            if x0 <= x <= x1:
                points.append((x, y))
    if b != 0:
        for x in (x0, x1):
            y = Fraction(-offset - a * x, b)
            if y0 <= y <= y1:
                points.append((x, y))
    points = sorted(set(points))
    if len(points) < 2:
        return None
    return points[0], points[-1]


def render_svg(p: Polytope, marked_points=()) -> str:
    """Render facet lines, vertices and marked points of a 2D polytope."""
    if p.dim != 2:
        raise MomentcertError("rendering is only available for 2-dimensional polytopes")
    vertices = [v.point for v in p.vertices()]
    anchors = list(vertices) + [tuple(pt) for pt in marked_points]
    center = equidistant_point(p)
    if center is not None:
        anchors.append(center[0])
    if not anchors:
        anchors = [(Fraction(-1), Fraction(-1)), (Fraction(1), Fraction(1))]
    xs = [a[0] for a in anchors]
    ys = [a[1] for a in anchors]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    extent = max(hi_x - lo_x, hi_y - lo_y, Fraction(1))
    pad = extent * PAD_NUM / PAD_DEN
    box = ((lo_x - pad, hi_x + pad), (lo_y - pad, hi_y + pad))
    span = max(box[0][1] - box[0][0], box[1][1] - box[1][0])
    scale = Fraction(CANVAS) / span

    def to_canvas(pt):
        x = (pt[0] - box[0][0]) * scale
        y = Fraction(CANVAS) - (pt[1] - box[1][0]) * scale
        return float(x), float(y)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
        f'viewBox="0 0 {CANVAS} {CANVAS}">',
        f'<rect x="0" y="0" width="{CANVAS}" height="{CANVAS}" fill="#ffffff"/>',
    ]
    for f in sorted(p.facets):
        seg = _clip_line_to_box(f.normal, f.offset, box)
        if seg is None:
            continue
        (ax, ay), (bx, by) = to_canvas(seg[0]), to_canvas(seg[1])
        lines.append(
            f'<line x1="{ax:.2f}" y1="{ay:.2f}" x2="{bx:.2f}" y2="{by:.2f}" '
            f'stroke="#888888" stroke-width="1"/>'
        )
    if len(vertices) >= 3 and p.is_compact():
        cx = sum(v[0] for v in vertices) / len(vertices)
        cy = sum(v[1] for v in vertices) / len(vertices)
        ring = sorted(vertices, key=lambda v: _angle_key(v[0] - cx, v[1] - cy))
        path = " ".join("{:.2f},{:.2f}".format(*to_canvas(v)) for v in ring)
        lines.append(
            f'<polygon points="{path}" fill="none" stroke="#000000" stroke-width="2"/>'
        )
    for v in vertices:
        x, y = to_canvas(v)
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#000000"/>')
    for pt in marked_points:
        x, y = to_canvas(tuple(pt))
        lines.append(
            f'<path d="M {x - 5:.2f} {y:.2f} L {x + 5:.2f} {y:.2f} '
            f'M {x:.2f} {y - 5:.2f} L {x:.2f} {y + 5:.2f}" '
            f'stroke="#cc0000" stroke-width="2"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
