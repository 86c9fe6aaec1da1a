"""Displaceability scanning with straight-line probes.

A probe enters the polytope from the relative interior of a facet along an
integral direction that pairs to 1 with the facet normal.  Fiber points
strictly before the probe's midpoint are displaceable; the scan searches
facets and bounded integral directions exhaustively, so a 'none' answer is
a finite certificate that no probe of that size displaces the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

from . import lattice
from .errors import NotOnFacetError, NotTransverseError, ProbeError, UnboundedProbeError
from .lattice import IntVec, RatVec, format_vec
from .polytope import Polytope


@dataclass(frozen=True)
class Probe:
    facet: int
    direction: IntVec
    base: RatVec


def _check_probe(p: Polytope, probe: Probe) -> None:
    if not 0 <= probe.facet < p.d:
        raise ProbeError(f"facet index {probe.facet} out of range")
    nu = p.facets[probe.facet].normal
    if lattice.dot(nu, probe.direction) != 1:
        raise NotTransverseError(
            f"direction {probe.direction} pairs to "
            f"{lattice.dot(nu, probe.direction)} with the facet normal; need 1"
        )
    values = p.support_values(probe.base)
    if values[probe.facet] != 0:
        raise NotOnFacetError(f"base point {format_vec(probe.base)} is not on facet {probe.facet}")
    for i, v in enumerate(values):
        if i != probe.facet and v <= 0:
            raise NotOnFacetError(
                f"base point {format_vec(probe.base)} is not in the relative interior of the facet"
            )


def probe_reach(p: Polytope, probe: Probe) -> Fraction:
    """Largest t with base + t * direction inside the polytope."""
    _check_probe(p, probe)
    reach = None
    for i, (nu, _) in enumerate(p.facets):
        pairing = lattice.dot(nu, probe.direction)
        if pairing < 0:
            bound = Fraction(p.support(i, probe.base), -pairing)
            if reach is None or bound < reach:
                reach = bound
    if reach is None:
        raise UnboundedProbeError("probe never exits the polytope")
    return reach


def is_displaceable_by_probe(p: Polytope, u, probe: Probe) -> bool:
    """Whether u lies on the probe strictly before its midpoint (0 < t < reach/2).

    probe_reach has checked <nu, direction> = 1, so the direction is non-zero.
    """
    reach = probe_reach(p, probe)
    delta = tuple(Fraction(a) - b for a, b in zip(u, probe.base, strict=True))
    t = next(Fraction(d, w) for d, w in zip(delta, probe.direction) if w != 0)
    if any(d != t * w for d, w in zip(delta, probe.direction)):
        return False
    return 0 < t < reach / 2


def probe_scan(p: Polytope, u, direction_bound: int):
    """Exhaustive search for a probe displacing the interior point u.

    Scans facets in order and integral directions with max-norm up to
    direction_bound in lexicographic order, returning the first displacing
    probe, or None.  Probes that never exit the polytope are skipped: they
    carry no displacement conclusion.

    The support values of u are evaluated once, as integers S_i over a
    common denominator D.  For facet f and direction w, with c_i the integer
    pairing <nu_i, w> and t0 = s_f(u) = S_f / D, the base u - t0 w has
    support values B_i / D with B_i = S_i - S_f c_i.  The base lies in the
    facet's relative interior when B_i > 0 for every i != f.  The probe
    exits where the first facet with c_i < 0 vanishes, at reach
    min B_i / (-c_i D), and u lies strictly before the midpoint when
    2 t0 < reach, that is S_i + S_f c_i > 0 for each c_i < 0.  Together
    the two tests say S_i > S_f |c_i| for every i != f.
    """
    u = tuple(Fraction(x) for x in u)
    values = p.support_values(u)
    if not all(v > 0 for v in values):
        raise ProbeError(f"scan point {format_vec(u)} is not interior")
    (scaled,) = lattice.integer_rows([values])
    normals = p.normals
    for f, nu in enumerate(normals):
        s_f = scaled[f]
        for w in iter_product(range(-direction_bound, direction_bound + 1), repeat=p.dim):
            if lattice.dot(nu, w) != 1:
                continue
            pairings = [lattice.dot(m, w) for m in normals]
            if min(pairings) >= 0:
                continue  # the probe never exits the polytope
            if all(i == f or s > s_f * abs(c) for i, (s, c) in enumerate(zip(scaled, pairings))):
                return Probe(f, w, tuple(x - values[f] * c for x, c in zip(u, w)))
    return None
