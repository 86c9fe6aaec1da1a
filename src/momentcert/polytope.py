"""Moment polytopes given by facet inequalities <x, normal> + offset >= 0.

Facet normals are primitive integer vectors, offsets are exact rationals.
Unbounded polytopes are first class citizens; nothing here assumes
boundedness unless it says so.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import NamedTuple

from . import lattice
from .errors import EmptyInteriorError, PolytopeError
from .lattice import IntVec, RatVec


class Facet(NamedTuple):
    normal: IntVec
    offset: Fraction


@dataclass(frozen=True)
class Polytope:
    """A finite facet system; identity of polytopes is canonical-form equality."""

    dim: int
    facets: tuple[Facet, ...]

    def __post_init__(self):
        seen = set()
        for f in self.facets:
            if len(f.normal) != self.dim:
                raise PolytopeError(f"normal {f.normal} has wrong length for dimension {self.dim}")
            if not lattice.is_primitive(f.normal):
                raise PolytopeError(f"normal {f.normal} is not primitive")
            if f in seen:
                raise PolytopeError(f"duplicate facet {f}")
            seen.add(f)
        if len(self.facets) < self.dim:
            raise PolytopeError(
                f"{len(self.facets)} facets cannot cut out a {self.dim}-dimensional polytope"
            )
        if not _interior_nonempty(self.dim, self.facets):
            raise EmptyInteriorError("facet system has empty interior")

    # -- basic queries ------------------------------------------------------

    @property
    def d(self) -> int:
        return len(self.facets)

    @property
    def normals(self) -> tuple[IntVec, ...]:
        return tuple(f.normal for f in self.facets)

    @property
    def offsets(self) -> tuple[Fraction, ...]:
        return tuple(f.offset for f in self.facets)

    def support(self, i: int, x) -> Fraction:
        """Value of the i-th facet functional at x."""
        nu, a = self.facets[i]
        return lattice.dot(nu, x) + a

    def support_values(self, x) -> tuple[Fraction, ...]:
        return tuple(self.support(i, x) for i in range(self.d))

    def contains(self, x) -> bool:
        return all(v >= 0 for v in self.support_values(x))

    def interior_contains(self, x) -> bool:
        return all(v > 0 for v in self.support_values(x))

    # -- predicates ---------------------------------------------------------

    def is_even(self) -> bool:
        return self.d % 2 == 0

    def is_symmetric(self) -> bool:
        """Whether the multiset of normals is closed under negation."""
        normals = Counter(self.normals)
        return normals == Counter(lattice.neg(n) for n in normals.elements())

    def is_monotone(self) -> Fraction | None:
        """The common positive offset, if all offsets agree; None otherwise."""
        if not self.facets:
            return None
        lam = self.facets[0].offset
        if lam > 0 and all(f.offset == lam for f in self.facets):
            return lam
        return None

    def is_delzant(self) -> bool:
        """Every vertex lies on exactly dim facets whose normals form a Z-basis."""
        for v in self.vertices():
            if len(v.active) != self.dim:
                return False
            mat = tuple(self.facets[i].normal for i in sorted(v.active))
            if abs(lattice.det_exact(mat)) != 1:
                return False
        return True

    def is_compact(self) -> bool:
        """Exact boundedness test via extreme rays of the recession cone."""
        n = self.dim
        if n == 0:
            return True
        normals = self.normals
        if lattice.rank_exact(normals) < n:
            return False  # recession cone contains a line
        for subset in combinations(range(self.d), n - 1):
            rows = [normals[i] for i in subset]
            sol = lattice.solve_exact(rows, [0] * len(rows)) if rows else (
                (Fraction(0),) * n,
                tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)),
            )
            if sol is None or len(sol[1]) != 1:
                continue
            (kernel,), _ = lattice.integer_rows(sol[1])
            ray = lattice.primitive_part(kernel)
            for w in (ray, lattice.neg(ray)):
                if all(lattice.dot(nu, w) >= 0 for nu in normals):
                    return False
        return True

    # -- geometry -----------------------------------------------------------

    def vertices(self) -> tuple[Vertex, ...]:
        """All 0-dimensional faces, sorted by coordinates.

        Enumerates dim-subsets of facets with invertible normal matrix and
        keeps the feasible intersection points.  The active set records every
        facet through the point, so degenerate vertices are visible.
        """
        n = self.dim
        found: dict[RatVec, frozenset[int]] = {}
        for subset in combinations(range(self.d), n):
            rows = [self.facets[i].normal for i in subset]
            rhs = [-self.facets[i].offset for i in subset]
            sol = lattice.solve_exact(rows, rhs)
            if sol is None or sol[1]:
                continue
            point = sol[0]
            values = self.support_values(point)
            if any(v < 0 for v in values):
                continue
            found.setdefault(point, frozenset(i for i, v in enumerate(values) if v == 0))
        return tuple(
            Vertex(point=p, active=found[p]) for p in sorted(found.keys())
        )

    def canonical_form(self) -> Polytope:
        """Facets sorted by (normal, offset); the package's polytope identity.

        A polytope already in that order is returned itself, not validated again.
        """
        facets = tuple(sorted(self.facets))
        return self if facets == self.facets else Polytope(self.dim, facets)

    def translate(self, x0) -> Polytope:
        """The polytope shifted by x0 (offsets pick up -<x0, normal>)."""
        return Polytope(
            self.dim,
            tuple(Facet(f.normal, f.offset - lattice.dot(x0, f.normal)) for f in self.facets),
        )


@dataclass(frozen=True)
class Vertex:
    point: RatVec
    active: frozenset[int]


def polytope(dim: int, facets) -> Polytope:
    """Build a Polytope from (normal, offset) pairs, coercing to exact types."""
    fs = []
    for normal, offset in facets:
        if isinstance(offset, float):
            raise PolytopeError("offsets must be exact (int, Fraction or 'p/q' string)")
        fs.append(Facet(tuple(int(x) for x in normal), Fraction(offset)))
    return Polytope(dim, tuple(fs))


def product(p1: Polytope, p2: Polytope) -> Polytope:
    """Cartesian product: left factor normals zero-padded right, then right
    factor normals zero-padded left; offsets and facet order preserved."""
    z1 = (0,) * p1.dim
    z2 = (0,) * p2.dim
    facets = tuple(Facet(f.normal + z2, f.offset) for f in p1.facets) + tuple(
        Facet(z1 + f.normal, f.offset) for f in p2.facets
    )
    return Polytope(p1.dim + p2.dim, facets)


def prune_redundant(p: Polytope) -> Polytope:
    """Drop every facet whose removal leaves the feasible set unchanged.

    Among parallel facets the smaller offset is the binding one, so the
    others go; exact duplicates collapse to a single copy.  The result is
    canonically sorted.
    """
    kept = _prune_facet_list(p.dim, p.facets)
    return Polytope(p.dim, tuple(sorted(kept)))


def equidistant_point(p: Polytope):
    """The unique interior point with all facet values equal, if it exists.

    Solves support_i(x) = t for all i in the unknowns (x, t); returns
    (point, t) when the solution is unique with t > 0, else None.
    """
    if not p.facets:
        return None
    n = p.dim
    rows = [f.normal + (-1,) for f in p.facets]
    rhs = [-f.offset for f in p.facets]
    sol = lattice.solve_exact(rows, rhs)
    if sol is None or sol[1]:
        return None
    point, t = sol[0][:n], sol[0][n]
    if t <= 0:
        return None
    return point, t


def match_dilate_translate(p: Polytope, model: Polytope):
    """Find t > 0 and x0 with p = t * model + x0 as facet systems.

    Normals must agree as multisets; each matched pair forces the linear
    relation offset = t * model_offset - <x0, normal>.  Returns (t, x0) when
    those relations have a unique solution with t > 0, else None.
    """
    if p.dim != model.dim:
        return None
    groups: dict[IntVec, list[Fraction]] = {}
    for f in p.facets:
        groups.setdefault(f.normal, []).append(f.offset)
    model_groups: dict[IntVec, list[Fraction]] = {}
    for f in model.facets:
        model_groups.setdefault(f.normal, []).append(f.offset)
    if set(groups) != set(model_groups):
        return None
    rows = []
    rhs = []
    for nu, offs in sorted(groups.items()):
        m_offs = model_groups[nu]
        if len(offs) != len(m_offs):
            return None
        # dilations with t > 0 preserve the order of parallel offsets
        for a, am in zip(sorted(offs), sorted(m_offs)):
            rows.append((am,) + lattice.neg(nu))
            rhs.append(a)
    if not rows:
        return None
    sol = lattice.solve_exact(rows, rhs)
    if sol is None or sol[1]:
        return None
    t, x0 = sol[0][0], sol[0][1:]
    if t <= 0:
        return None
    return t, x0


# -- exact feasibility (Fourier-Motzkin) -------------------------------------

def _coprime(coeffs, const, strict):
    """Divide an integer constraint by the gcd of all its entries, the constant included."""
    g = gcd(lattice.vec_gcd(coeffs), const)
    if g > 1:
        return tuple(x // g for x in coeffs), const // g, strict
    return coeffs, const, strict


def _dominate(cons):
    """Keep only the tightest constraint per coefficient vector."""
    best: dict[tuple, tuple] = {}
    for c, b, strict in cons:
        key = c
        cur = best.get(key)
        cand = (b, 0 if strict else 1)
        if cur is None or cand < (cur[1], 0 if cur[2] else 1):
            best[key] = (c, b, strict)
    return list(best.values())


def feasible(constraints, nvars: int) -> bool:
    """Exact satisfiability of a system sum(c_i x_i) + b >= 0 (or > 0).

    constraints: iterable of (coeffs, const, strict).  Decided by
    Fourier-Motzkin elimination on integer rows: each constraint is scaled
    to integers once, and every combination of two is divided by its gcd.
    """
    constraints = list(constraints)
    rows, _ = lattice.integer_rows([(*c, b) for c, b, _ in constraints])
    cons = _dominate([
        _coprime(tuple(row[:-1]), row[-1], s) for row, (_, _, s) in zip(rows, constraints)
    ])
    for var in range(nvars - 1, -1, -1):
        pos = [c for c in cons if c[0][var] > 0]
        negs = [c for c in cons if c[0][var] < 0]
        zero = [c for c in cons if c[0][var] == 0]
        if not pos or not negs:
            cons = zero  # the variable escapes to +/- infinity
            continue
        new = list(zero)
        for cp, bp, sp in pos:
            for cn, bn, sn in negs:
                fp = -cn[var]
                fn = cp[var]
                coeffs = tuple(fp * a + fn * b for a, b in zip(cp, cn))
                const = fp * bp + fn * bn
                new.append(_coprime(coeffs, const, sp or sn))
        cons = _dominate(new)
    for _, b, strict in cons:
        if b < 0 or (strict and b == 0):
            return False
    return True


def _interior_nonempty(dim: int, facets) -> bool:
    if all(f.offset > 0 for f in facets):
        return True  # the origin is interior
    return feasible([(f.normal, f.offset, True) for f in facets], dim)


def _prune_facet_list(dim: int, facets) -> list[Facet]:
    work = sorted(set(facets))
    if not _interior_nonempty(dim, work):
        raise EmptyInteriorError("cannot prune a system with empty interior")
    for f in list(work):
        others = [g for g in work if g != f]
        # f is redundant iff the others cannot be satisfied strictly below f
        cons = [(g.normal, g.offset, False) for g in others]
        cons.append((lattice.neg(f.normal), -f.offset, True))
        if not feasible(cons, dim):
            work = others
    return work
