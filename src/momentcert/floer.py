"""The GF(2) sign-flip operator of a facet system and its rank invariant.

The operator acts on the 2^n-dimensional GF(2) space spanned by sign
vectors in {+1,-1}^n.  A sign vector is indexed by the subset of
coordinates carrying -1, packed as the bits of an integer; a vector of the
space is a 2^n-bit integer.  Each facet normal contributes the XOR
translation by its mod-2 reduction, so the whole operator is convolution
by a single generator row in the group algebra of (Z/2)^n: every matrix
row is an XOR translate of that row, and all 2^n entries of a row live
bit-packed in one big integer.

Two exact facts about the generator g = sum of x^s over the set S of
translations with odd multiplicity cut the elimination down:

- The square law: over GF(2) the cross terms x^s x^t + x^t x^s cancel, so
  g^2 = |S| mod 2.  An odd |S| makes g a unit (full rank, no elimination).
  An even |S| makes the operator square to zero, so its image lies in its
  kernel and the rank is at most half the dimension; elimination stops once
  it reaches that bound.
- The coset split: for t0 in S, g = x^t0 * h with h in the group algebra of
  the subgroup H spanned by the shifts s ^ t0.  Multiplication by x^t0 is
  invertible, and the whole algebra is free over that of H with one basis
  element per coset, so the rank is the number of cosets times the rank of
  h on the 2^k-dimensional algebra of H, where k = dim H.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import DimensionLimitError, NonSquareInvariantError, OddPolytopeError
from .polytope import Polytope, product

DIMENSION_LIMIT = 13


@dataclass(frozen=True)
class BoundaryOp:
    """Sum of XOR translations, one per facet normal reduced mod 2."""

    dim: int
    translations: tuple[int, ...]

    def __post_init__(self):
        # one check per translation, none per sign vector: an operator past
        # DIMENSION_LIMIT still builds, and rank_gf2 refuses it
        if self.dim < 0:
            raise ValueError(f"negative dimension {self.dim}")
        for t in self.translations:
            if t < 0 or t.bit_length() > self.dim:
                raise ValueError(f"translation {t} is outside range(2**{self.dim})")

    @property
    def generator(self) -> int:
        """The image of the all-plus sign vector; determines the operator."""
        g = 0
        for t in self.translations:
            g ^= 1 << t
        return g


def boundary_op(p: Polytope) -> BoundaryOp:
    """The sign-flip operator of a polytope: one translation per facet."""
    masks = []
    for nu in p.normals:
        mask = 0
        for i, c in enumerate(nu):
            if c % 2:
                mask |= 1 << i
        masks.append(mask)
    return BoundaryOp(p.dim, tuple(sorted(masks)))


def _reduce_into(pivots: dict[int, int], row: int) -> None:
    """Add row to an echelon basis keyed by lowest set bit, unless it is dependent."""
    while row:
        p = (row & -row).bit_length() - 1
        if p not in pivots:
            pivots[p] = row
            return
        row ^= pivots[p]


def rank_gf2(op: BoundaryOp) -> tuple[int, int]:
    """(rank, nullity) of the operator, by bit-packed Gaussian elimination.

    An odd number of translations with odd multiplicity gives a unit
    generator (g^2 = 1), so full rank without elimination.  Otherwise the
    shifts s ^ t0 from one support element t0 span a subgroup H of
    dimension k.  Their bits at the pivot columns of a lowest-bit echelon
    basis of H are coordinates on H: the map is linear, and injective
    because a nonzero element of H has the bit of its lowest basis pivot
    set.  In those coordinates row e is the shifted generator XOR-translated
    by e, built straight from its set bits, and elimination always picks the
    lowest set bit as pivot, so the result is deterministic.  The shifted
    generator squares to g^2 = 0, so its rank on H is at most 2^(k-1), and
    elimination stops when it gets there.  The full rank is 2^(n-k) times
    the rank on H, one copy per coset.
    """
    if op.dim > DIMENSION_LIMIT:
        raise DimensionLimitError(f"dimension {op.dim} exceeds the limit {DIMENSION_LIMIT}")
    size = 1 << op.dim
    g = op.generator
    support = [b for b in range(size) if g >> b & 1]
    if not support:
        return 0, size
    if len(support) % 2:
        return size, 0
    shifts = [s ^ support[0] for s in support]
    span: dict[int, int] = {}
    for s in shifts:
        _reduce_into(span, s)
    columns = sorted(span)
    local = [sum(1 << i for i, c in enumerate(columns) if s >> c & 1) for s in shifts]
    k = len(columns)
    half = 1 << (k - 1)
    pivots: dict[int, int] = {}
    for e in range(1 << k):
        row = 0
        for b in local:
            row |= 1 << (b ^ e)
        _reduce_into(pivots, row)
        if len(pivots) == half:
            break
    rank = len(pivots) << (op.dim - k)
    return rank, size - rank


def hf_even(p: Polytope) -> int:
    """nullity - rank of the sign-flip operator; defined for even facet counts."""
    if not p.is_even():
        raise OddPolytopeError(f"polytope has {p.d} facets; an even count is required")
    rank, nullity = rank_gf2(boundary_op(p))
    return nullity - rank


def hf(p: Polytope) -> int:
    """The invariant for arbitrary facet parity, via the square of P x P.

    P x P always has an even facet count and its even invariant is a perfect
    square; a non-square value would expose a soundness bug, hence the error.
    """
    squared = hf_even(product(p, p))
    if squared < 0:
        raise NonSquareInvariantError(f"negative doubled invariant {squared}")
    root = isqrt(squared)
    if root * root != squared:
        raise NonSquareInvariantError(f"doubled invariant {squared} is not a perfect square")
    return root
