"""Polytope-level symplectic reduction along integral affine sections.

A reduction is written as the section y -> A y + x0 from the reduced
coordinates into the ambient ones, the way worked substitutions like
"x3 = x1 + x2" are usually given.  The subtorus being quotiented is
recoverable as the integral kernel of A^T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import index

from . import lattice
from .errors import (
    EmptyInteriorError,
    NonPrimitiveImageError,
    NotCompactError,
    NotDelzantError,
    NotMonotoneError,
    SliceError,
    SliceOutsidePolytopeError,
)
from .lattice import IntMat, IntVec, RatVec
from .polytope import (
    Facet,
    Polytope,
    _blocks,
    _check_facet_count,
    _interior_nonempty,
    _prune_facet_list,
    _unvalidated,
    polytope,
    product,
)


@dataclass(frozen=True)
class AffineReduction:
    """The section (matrix, base): reduced point y sits at matrix @ y + base.

    The one Smith form of A^T taken at construction both validates the
    section and fixes the subtorus basis that subtorus_generators returns.
    """

    matrix: IntMat
    base: RatVec
    _generators: tuple[IntVec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = len(self.matrix)
        cols = len(self.matrix[0]) if rows else 0
        if any(len(r) != cols for r in self.matrix):
            raise SliceError("ragged section matrix")
        if len(self.base) != rows:
            raise SliceError("base point length must match the ambient dimension")
        if not all(isinstance(x, int) for r in self.matrix for x in r) or not all(
            isinstance(b, (int, Fraction)) for b in self.base
        ):
            raise SliceError("section entries must be exact: an integer matrix, a rational base")
        # A^T maps Z^rows onto Z^cols iff its cols invariant factors are all 1;
        # a zero factor, or fewer than cols of them, is a rank deficit
        d, v = lattice.smith_normal_form(lattice.transpose(self.matrix))
        factors = [d[i][i] for i in range(min(rows, cols))]
        if len(factors) < cols or 0 in factors:
            raise SliceError("section matrix must have independent columns")
        if any(f != 1 for f in factors):
            raise SliceError(
                "transpose of the section matrix must map onto the reduced lattice"
            )
        # A^T V = U^-1 D vanishes on the columns of V past cols, and V is
        # unimodular, so those columns are a saturated basis of the kernel.
        # With cols == 0 the transpose is empty and V is not rows x rows:
        # a section onto a point quotients the whole torus.
        kernel = lattice.transpose(v)[cols:] if cols else lattice.identity(rows)
        object.__setattr__(self, "_generators", kernel)

    @property
    def ambient_dim(self) -> int:
        return len(self.matrix)

    @property
    def reduced_dim(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def preimage(self, x) -> RatVec | None:
        """The unique y with matrix @ y + base = x (the columns of matrix are
        independent), or None if x is off the slice."""
        rows = lattice.integer_rows(
            [(*row, xi - bi) for row, xi, bi in zip(self.matrix, x, self.base, strict=True)]
        )
        sol = lattice.solve_exact(rows)
        return None if sol is None else lattice.as_fractions(*sol)

    def subtorus_generators(self) -> tuple[IntVec, ...]:
        """Integral basis of the kernel of A^T: the Lie algebra directions of
        the quotiented subtorus.  Smith form makes the basis saturated, so it
        generates the kernel lattice, not just a finite-index sublattice.
        A section onto a point (reduced dimension 0) quotients the whole
        torus, so the basis is the standard one."""
        return self._generators

    def levels(self) -> tuple[Fraction, ...]:
        """The value <x, k> shared by every slice point, per subtorus
        generator k; the reduction happens at these levels."""
        return tuple(lattice.dot(self.base, k) for k in self._generators)


def section(rows, base=None) -> AffineReduction:
    """Convenience constructor coercing rows/base to exact tuples.

    Matrix entries go through operator.index, which refuses floats and
    strings instead of truncating them; a float base is refused as well."""
    mat = tuple(tuple(map(index, row)) for row in rows)
    if base is None:
        base = (Fraction(0),) * len(mat)
    if any(isinstance(b, float) for b in base):
        raise SliceError("base must be exact (int, Fraction or 'p/q' string)")
    return AffineReduction(mat, tuple(Fraction(b) for b in base))


def reduce_polytope(ambient: Polytope, sec: AffineReduction) -> Polytope:
    """Express the ambient facets in the reduced coordinates of the section.

    Facet (nu, a) maps to (A^T nu, a + <x0, nu>).  A zero image means the
    facet is parallel to the slice: harmless if its clearance is positive,
    fatal otherwise.  Non-primitive images signal a slice that does not
    respect the lattice.  The surviving list is pruned and canonicalized;
    pruning collapses coincident images into one facet.

    The reduction is a symplectic quotient only at a regular level, where
    the subtorus acts freely.  That requires each facet of the result to
    come from exactly one ambient facet: two ambient facets nu != nu' with
    the same image put nu - nu' in the kernel of A^T, and the circle it
    generates fixes every point over the shared facet.  This function does
    not check it; certificate verification does, through reduce_with_sources.
    """
    return reduce_with_sources(ambient, sec)[0]


def reduce_with_sources(
    ambient: Polytope, sec: AffineReduction
) -> tuple[Polytope, dict[Facet, tuple[IntVec, ...]]]:
    """reduce_polytope together with the ambient normals behind each facet:
    the dict maps each reduced facet, in order, to the normals of the
    ambient facets that map onto it, in ambient order; pruned images are
    left out.

    Facet (nu, a) maps to the integer row (A^T nu, D a + <D x0, nu>) of the
    reduction dilated by D, the lcm of the denominators of the offsets and
    of x0, summed from the rows (A_i, D x0_i) over the non-zero nu_i; the
    sorted rows are in canonical order, and only kept rows become Fractions.
    """
    if sec.ambient_dim != ambient.dim:
        raise SliceError(
            f"section lives in dimension {sec.ambient_dim}, polytope in {ambient.dim}"
        )
    k = sec.reduced_dim
    den = lcm(*(a.denominator for _, a in ambient.facets), *(b.denominator for b in sec.base))
    lifts = [(*row, b.numerator * (den // b.denominator)) for row, b in zip(sec.matrix, sec.base)]
    sources: dict[tuple[int, ...], tuple[IntVec, ...]] = {}
    for nu, a in ambient.facets:
        row = [0] * k + [a.numerator * (den // a.denominator)]
        for x, lift in zip(nu, lifts):
            if x:
                row = [s + x * t for s, t in zip(row, lift)]
        *image, clearance = row
        if not any(image):
            if clearance <= 0:
                raise SliceOutsidePolytopeError(f"slice misses the interior: facet {nu} "
                                                f"has clearance {Fraction(clearance, den)}")
            continue
        if not lattice.is_primitive(image):
            raise NonPrimitiveImageError(f"facet {nu} maps to non-primitive {tuple(image)}")
        row = tuple(row)
        sources[row] = sources.get(row, ()) + (nu,)
    # the images are distinct and primitive; pruning needs a non-empty interior
    rows = sorted(sources)
    if not _interior_nonempty(k, rows):
        raise EmptyInteriorError("cannot prune a system with empty interior")
    kept = _prune_facet_list(k, rows)
    _check_facet_count(k, kept)
    facets = tuple(Facet(row[:-1], Fraction(row[-1], den)) for row in kept)
    return _unvalidated(k, facets), {f: sources[row] for f, row in zip(facets, kept)}


# -- standard models ----------------------------------------------------------
#
# Every model is a normal table with all offsets 1: verify compares a leaf's
# normals with its model's table, and the constructors below build from it.

O_MINUS_ONE_NORMALS = ((1, 0), (0, 1), (1, 1))


def weighted_projective_normals(weights) -> tuple[IntVec, ...]:
    """The normals e_1, ..., e_n and -(m_1, ..., m_n) of CP(1, m_1, ..., m_n):
    all ones give the simplex, and (1, 1) the sphere.  The last normal is
    primitive, so a facet normal, only when the m_j are coprime.  A weight
    such as 1.5 or Fraction(2) raises TypeError instead of being truncated."""
    weights = tuple(index(w) for w in weights)
    if not weights or weights[0] != 1:
        raise ValueError("weights must start with 1")
    if any(w < 1 for w in weights):
        raise ValueError("weights must be positive")
    return lattice.identity(len(weights) - 1) + (tuple(-w for w in weights[1:]),)


def simplex(n: int, offset=1) -> Polytope:
    """x_j + offset >= 0 for each j, and -(sum x_j) + offset >= 0."""
    return weighted_projective((1,) * (n + 1), offset)


def weighted_projective(weights, offset=1) -> Polytope:
    """x_j + offset >= 0 for each j, and -(sum m_j x_j) + offset >= 0."""
    normals = weighted_projective_normals(weights)
    return polytope(len(normals) - 1, [(nu, offset) for nu in normals])


def cp1(a1=1, a2=1) -> Polytope:
    """The segment x + a1 >= 0, -x + a2 >= 0."""
    return polytope(1, zip(weighted_projective_normals((1, 1)), (a1, a2)))


def o_minus_one(a1=1, a2=1, a3=1) -> Polytope:
    """The unbounded wedge with normals (1,0), (0,1), (1,1)."""
    return polytope(2, zip(O_MINUS_ONE_NORMALS, (a1, a2, a3)))


def cube(n: int, offset=1) -> Polytope:
    """The product of n spheres cp1(offset, offset): +-x_j + offset >= 0 for each j."""
    p = polytope(0, ())
    for _ in range(n):
        p = product(p, cp1(offset, offset))
    return p


# -- the weight-finding lemma -------------------------------------------------

@dataclass(frozen=True)
class WeightVector:
    """Positive weights with sum(m_j nu_j) = 0 and m_pivot = 1."""

    weights: tuple[int, ...]
    pivot: int


def _vertex_cone_coords(p: Polytope, target: IntVec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(indices, coeffs): facets of p active at a vertex whose normal cone
    holds target, and the nonnegative integer coordinates of target in
    their normals, so that sum(c * normal) = target.

    p must be compact and Delzant.  A vertex of p is one vertex per
    coordinate block (see polytope._blocks) and its normal cone is the
    product of theirs, so target is placed block by block, by its part on
    the block's coordinates.  A block where that part is 0 has coordinates
    0 at any of its vertices and is skipped.  Otherwise the block's
    vertices are scanned in coordinate order and the first admissible one
    wins; together these make the first admissible vertex of p.  At each
    vertex the active normals form a Z-basis, so the solve gives the
    unique, integral coordinates of the part.  A compact block attains
    min <part, x> at some vertex, and by LP duality the coordinates there
    are nonnegative, so each scan finds one, or p was not compact
    (NotCompactError).  A denominator other than 1 at the admissible
    vertex shows that its normals are no Z-basis, and raises
    NotDelzantError.  The indices run block after block, each block's in
    increasing order.
    """
    indices: list[int] = []
    coeffs: list[int] = []
    layout, distinct = _blocks(p)
    for coords, facets, k in layout:
        block = distinct[k]
        part = tuple(target[c] for c in coords)
        if not any(part):
            continue
        for vertex in block.vertices():
            active = sorted(vertex.active)
            normals = [block.facets[i].normal for i in active]
            sol = lattice.solve_exact(zip(*normals, part))
            if sol is not None and all(c >= 0 for c in sol[0]):
                break
        else:
            raise NotCompactError(f"no vertex cone holds target {part}")
        num, den = sol
        if den != 1:
            raise NotDelzantError(
                f"target {part} has coordinates "
                f"{lattice.format_vec(lattice.as_fractions(num, den))} "
                f"at vertex {lattice.format_vec(vertex.point)}"
            )
        indices += (facets[i] for i in active)
        coeffs += num
    return tuple(indices), tuple(coeffs)


def monotone_weights(p: Polytope) -> WeightVector:
    """Positive integers m with nu_k + sum_{j != k} m_j nu_j = 0.

    Indices refer to the canonical facet order of p.  When the plain normal
    sum already vanishes the answer is all ones with the last facet as
    pivot; otherwise the deficit -sum(nu_j) is expressed in the first
    admissible vertex cone and the pivot is the last facet with weight 1.

    The weights are 1 + c_j with sum c_j nu_j = -sum nu_j, so
    sum m_j nu_j = 0 by construction.  At most n of the c_j are non-zero
    and a compact p with facets has more than n, so some weight is 1.
    """
    canon = p.canonical_form()
    if not canon.facets:
        raise NotMonotoneError("weights need at least one facet to pivot on")
    if not canon.is_compact():
        raise NotCompactError("weights exist only for compact polytopes")
    if not canon.is_delzant():
        raise NotDelzantError("weights exist only for Delzant polytopes")
    n = canon.dim
    total = tuple(sum(nu[i] for nu in canon.normals) for i in range(n))
    if all(x == 0 for x in total):
        return WeightVector((1,) * canon.d, canon.d - 1)
    indices, coeffs = _vertex_cone_coords(canon, lattice.neg(total))
    weights = [1] * canon.d
    for idx, c in zip(indices, coeffs):
        weights[idx] += c
    pivot = max(i for i, m in enumerate(weights) if m == 1)
    return WeightVector(tuple(weights), pivot)
