"""The GF(2) sign-flip operator of a facet system and its rank invariant.

The operator acts on the 2^n-dimensional GF(2) space spanned by sign
vectors in {+1,-1}^n.  A sign vector is indexed by the subset of
coordinates carrying -1, packed as the bits of an integer; a vector of the
space is a 2^n-bit integer.  Each facet normal contributes the XOR
translation by its mod-2 reduction, so the whole operator is convolution
by a single generator row in the group algebra of (Z/2)^n: every matrix
row is an XOR translate of that row, and all 2^n entries of a row live
bit-packed in one big integer.
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

    @property
    def generator(self) -> int:
        """The image of the all-plus sign vector; determines the operator."""
        g = 0
        for t in self.translations:
            g ^= 1 << t
        return g

    def compose(self, other: BoundaryOp) -> BoundaryOp:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        pairs = sorted(s ^ t for s in self.translations for t in other.translations)
        return BoundaryOp(self.dim, tuple(pairs))

    def is_zero(self) -> bool:
        return self.generator == 0

    def is_identity(self) -> bool:
        return self.generator == 1


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


def rank_gf2(op: BoundaryOp) -> tuple[int, int]:
    """(rank, nullity) of the operator, by bit-packed Gaussian elimination.

    Row e is the generator row XOR-translated by e: bit b ^ e is set for
    every set bit b of the generator.  Elimination always picks the lowest
    set bit as pivot, so the result is deterministic.
    """
    if op.dim > DIMENSION_LIMIT:
        raise DimensionLimitError(f"dimension {op.dim} exceeds the limit {DIMENSION_LIMIT}")
    size = 1 << op.dim
    g = op.generator
    if g == 0:
        return 0, size
    support = [b for b in range(size) if g >> b & 1]
    pivots: dict[int, int] = {}
    for e in range(size):
        row = 0
        for b in support:
            row |= 1 << (b ^ e)
        while row:
            p = (row & -row).bit_length() - 1
            if p in pivots:
                row ^= pivots[p]
            else:
                pivots[p] = row
                break
        if len(pivots) == size:
            break
    rank = len(pivots)
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
