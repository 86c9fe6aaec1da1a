"""Deterministic SVG rendering of 2-dimensional polytopes.

All geometry is computed on integer points and converted to fixed
two-decimal canvas coordinates at the last moment, so the byte output is a
pure function of the input.  No timestamps, no environment leakage.

The anchors (vertices, marked points, the equidistant center) are read
over one denominator D and kept in units of 1/(4D), so the box, padded by
a quarter of its extent, has integer corners.  Each facet line is clipped
to the box with integer numerators over one denominator per line.  A
canvas coordinate is one int / int division, which CPython rounds
correctly, as float(Fraction) does: the doubles are those of the exact
rational coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import MomentcertError
from .polytope import Polytope, equidistant_point

CANVAS = 480
PAD_NUM, PAD_DEN = 1, 4  # padding: one quarter of the larger extent


def _angle_key(dx, dy):
    """Exact sort key for the counterclockwise angle of (dx, dy) from 0.

    sgn(dx) * dx^2 / |d|^2 is sgn(cos) * cos^2, which rises with the cosine.
    The cosine falls as the angle grows through the upper half-plane, angles
    in [0, pi), so the key is negated there; it rises through the lower one.
    The key does not change when (dx, dy) is scaled by a positive factor.
    """
    # no radius tie-break: the ring is sorted only for a compact polygon,
    # whose centroid is interior, and of two vertices on one ray from an
    # interior point the nearer would be interior, not a vertex
    c, r = dx * abs(dx), dx * dx + dy * dy
    return (0, Fraction(-c, r)) if dy > 0 or (dy == 0 and dx > 0) else (1, Fraction(c, r))


def _exact(x):
    """A marked point's coordinate as an exact rational: an int, a Fraction
    or a 'p/q' string; a float is refused instead of being converted."""
    if isinstance(x, float):
        raise MomentcertError(
            f"marked point coordinate {x!r} is not exact (int, Fraction or 'p/q' string)"
        )
    return Fraction(x)


def _marked(pt):
    """A marked point as its two exact coordinates (_exact); a point of
    any other length is refused, naming it and its length."""
    if len(pt) != 2:
        raise MomentcertError(f"marked point {tuple(pt)} has length {len(pt)}, expected 2")
    return _exact(pt[0]), _exact(pt[1])


def _clip(normal, offset, unit, box):
    """The ends of the line <x, normal> + offset = 0 inside the box, or None.

    Points are in units of 1/unit, as the box is, so with offset = n/m the
    line reads a X + b Y + k = 0 with (a, b) = m normal and k = n unit.
    A crossing with a box edge is X = (-k - b Y) / a or Y = (-k - a X) / b,
    and q = m |normal_1| |normal_2| (a zero entry counting as 1) is a
    multiple of a and of b, so the ends are integer numerators over q,
    compared and deduplicated as int pairs: (q, lowest end, highest end).
    """
    (x0, x1), (y0, y1) = box
    m = offset.denominator
    a, b = (c * m for c in normal)
    k = offset.numerator * unit
    q = m * abs(normal[0] or 1) * abs(normal[1] or 1)
    points = set()
    # intersect with the four box edges
    if a != 0:
        for y in (y0, y1):
            x = (-k - b * y) * (q // a)
            if x0 * q <= x <= x1 * q:
                points.add((x, y * q))
    if b != 0:
        for x in (x0, x1):
            y = (-k - a * x) * (q // b)
            if y0 * q <= y <= y1 * q:
                points.add((x * q, y))
    if len(points) < 2:
        return None
    return q, min(points), max(points)


def render_svg(p: Polytope, marked_points=()) -> str:
    """Render facet lines, vertices and marked points of a 2D polytope."""
    if p.dim != 2:
        raise MomentcertError("rendering is only available for 2-dimensional polytopes")
    vertices = [v.point for v in p.vertices()]
    marked = [_marked(pt) for pt in marked_points]
    center = equidistant_point(p)
    anchors = vertices + marked + ([center[0]] if center is not None else [])
    if not anchors:
        anchors = [(-1, -1), (1, 1)]
    unit = PAD_DEN * lcm(*(x.denominator for pt in anchors for x in pt))

    def scaled(pt):
        return tuple(x.numerator * (unit // x.denominator) for x in pt)

    vertices = [scaled(v) for v in vertices]
    marked = [scaled(pt) for pt in marked]
    xs, ys = zip(*map(scaled, anchors))
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    extent = max(hi_x - lo_x, hi_y - lo_y, unit)
    pad = extent * PAD_NUM // PAD_DEN
    x0, x1, y0, y1 = lo_x - pad, hi_x + pad, lo_y - pad, hi_y + pad
    box = ((x0, x1), (y0, y1))
    span = max(x1 - x0, y1 - y0)
    top = y0 + span

    def to_canvas(x, y, q=1):
        """Canvas coordinates of the point (x, y) / q, one division each."""
        return (x - x0 * q) * CANVAS / (span * q), (top * q - y) * CANVAS / (span * q)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
        f'viewBox="0 0 {CANVAS} {CANVAS}">',
        f'<rect x="0" y="0" width="{CANVAS}" height="{CANVAS}" fill="#ffffff"/>',
    ]
    for f in sorted(p.facets):
        seg = _clip(f.normal, f.offset, unit, box)
        if seg is None:
            continue
        q, a, b = seg
        (ax, ay), (bx, by) = to_canvas(*a, q), to_canvas(*b, q)
        lines.append(
            f'<line x1="{ax:.2f}" y1="{ay:.2f}" x2="{bx:.2f}" y2="{by:.2f}" '
            f'stroke="#888888" stroke-width="1"/>'
        )
    if len(vertices) >= 3 and p.is_compact():
        # offsets to the centroid, times the vertex count
        n = len(vertices)
        sx, sy = map(sum, zip(*vertices))
        ring = sorted(vertices, key=lambda v: _angle_key(n * v[0] - sx, n * v[1] - sy))
        path = " ".join("{:.2f},{:.2f}".format(*to_canvas(*v)) for v in ring)
        lines.append(
            f'<polygon points="{path}" fill="none" stroke="#000000" stroke-width="2"/>'
        )
    for v in vertices:
        x, y = to_canvas(*v)
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#000000"/>')
    for pt in marked:
        x, y = to_canvas(*pt)
        lines.append(
            f'<path d="M {x - 5:.2f} {y:.2f} L {x + 5:.2f} {y:.2f} '
            f'M {x:.2f} {y - 5:.2f} L {x:.2f} {y + 5:.2f}" '
            f'stroke="#cc0000" stroke-width="2"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
