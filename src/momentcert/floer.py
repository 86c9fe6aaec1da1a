"""The GF(2) sign-flip operator of a facet system and its rank invariant.

The operator acts on the 2^n-dimensional GF(2) space spanned by sign
vectors in {+1,-1}^n.  A sign vector is indexed by the subset of
coordinates carrying -1, packed as the bits of an integer.  Each facet
normal contributes the XOR translation by its mod-2 reduction, so the whole
operator is convolution by a single generator in the group algebra of
(Z/2)^n: every matrix row is an XOR translate of the generator row.
Translations of even multiplicity cancel, so the generator's support is
the set of translations of odd multiplicity, read from the translations
without building the 2^n-bit row; the rows that are eliminated, on the
subgroup H below, stay bit-packed in one big integer each.

The invariant hf is nullity - rank.  For an even facet count it is read
from P's own operator; for an odd one from P x P, whose invariant is
hf(P)^2 by Kuenneth.

Three exact facts about the generator g = sum of x^s over the set S of
translations with odd multiplicity cut the elimination down:

- The square law: over GF(2) the cross terms x^s x^t + x^t x^s cancel, so
  g^2 = |S| mod 2.  An odd |S| makes g a unit (full rank, no elimination).
  An even |S| makes the operator square to zero, so its image lies in its
  kernel and the rank is at most half the dimension; elimination stops once
  it reaches that bound.
- The block split: two coordinates share a block when some s in S has
  both bits set.  A translation 0 belongs to no block; it is the scalar 1.
  For a block B on k_B coordinates, let S_B be the part of S inside B,
  g_B the sum of x^s over S_B, e_B = |S_B| mod 2 and m_B = g_B + e_B.
  Then m_B has even support, so m_B^2 = 0.  For even |S| the scalars
  cancel and g = sum of the m_B, each acting on its own tensor factor of
  the algebra.  A square-zero operator N on a space of dimension D has
  only Jordan blocks of size 1 and 2, so its homology ker N / im N has
  dimension D - 2 rank N.  The sum of two commuting square-zero operators
  on separate factors squares to zero again (the cross terms are
  doubled), and by Kuenneth its homology is the tensor product of theirs,
  so their ranks fold as r = r_a 2^k_b + r_b 2^k_a - 2 r_a r_b.  Hence
  2^n - 2 rank is the product over blocks of 2^k_B - 2 r_B, with a factor
  2 for each coordinate no s touches.  r_B depends only on the relative
  bit positions of S_B, so a block whose elements equal another's after
  both are shifted down to bit 0 has the same rank and is eliminated once:
  P x P eliminates on the blocks of P alone, each of them once.
- The coset split: for t0 in the support of m_B, m_B = x^t0 * h with h in
  the group algebra of the subgroup H spanned by the shifts s ^ t0.
  Multiplication by x^t0 is invertible, and the block's algebra is free
  over that of H with one basis element per coset, so r_B is the number of
  cosets times the rank of h on the 2^k-dimensional algebra of H, where
  k = dim H.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import DimensionLimitError, NonSquareInvariantError, OddPolytopeError
from .polytope import Polytope, _coordinate_blocks, product

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


def _square_zero_rank(dim: int, support: tuple[int, ...]) -> int:
    """Rank of a square-zero element on the algebra of its coordinate block.

    support is the element's set bits, an even number of them, all inside a
    block of dim coordinates; the rank is on that block's 2^dim-dimensional
    algebra, where the element acts as on its own tensor factor.  The shifts
    s ^ t0 from one support element t0 span a subgroup H of dimension k.
    Their bits at the pivot columns of a lowest-bit echelon basis of H are
    coordinates on H: the map is linear, and injective because a nonzero
    element of H has the bit of its lowest basis pivot set.  In those
    coordinates row e is the shifted element XOR-translated by e, built
    straight from its set bits, and elimination always picks the lowest set
    bit as pivot, so the result is deterministic.  The shifted element still
    squares to zero, so its rank on H is at most 2^(k-1), and elimination
    stops when it gets there.  The rank on the whole algebra is 2^(dim-k)
    times the rank on H, one copy per coset.
    """
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
    return len(pivots) << (dim - k)


def rank_gf2(op: BoundaryOp) -> tuple[int, int]:
    """(rank, nullity) of the operator, block by block.

    The generator's support is read from the translations: each is toggled
    in a set, so those of odd multiplicity remain, and sorted.  An odd
    number of them gives a unit generator (g^2 = 1), so full rank without
    elimination.  Otherwise the support splits into coordinate blocks (see
    the module docstring).  The scalar 1 is added to a block that holds an
    odd number of elements, and the resulting square-zero element's rank
    r_B on the block's k_B coordinates comes from _square_zero_rank, which
    eliminates on at most 2^k_B bit-packed rows, once per distinct block:
    the block's elements shifted down by its lowest coordinate are the key
    of a dict that lives for this call.  Square-zero operators have
    Jordan blocks of size at most 2, so the homology dimension 2^n - 2 rank
    is the product of the blocks' 2^k_B - 2 r_B, times 2 per coordinate no
    support element touches; the zero generator has no blocks and rank 0.
    """
    if op.dim > DIMENSION_LIMIT:
        raise DimensionLimitError(f"dimension {op.dim} exceeds the limit {DIMENSION_LIMIT}")
    size = 1 << op.dim
    odd: set[int] = set()
    for t in op.translations:
        odd ^= {t}
    support = sorted(odd)
    if len(support) % 2:
        return size, 0
    homology, touched = 1, 0
    ranks: dict[tuple[int, ...], int] = {}
    for mask, indices in _coordinate_blocks(support):
        low = (mask & -mask).bit_length() - 1
        key = tuple(support[i] >> low for i in indices)
        if len(key) % 2:
            key += (0,)
        k = mask.bit_count()
        if key not in ranks:
            ranks[key] = _square_zero_rank(k, key)
        homology *= (1 << k) - 2 * ranks[key]
        touched += k
    rank = (size - (homology << (op.dim - touched))) // 2
    return rank, size - rank


def hf_even(p: Polytope) -> int:
    """nullity - rank of the sign-flip operator; defined for even facet counts."""
    if not p.is_even():
        raise OddPolytopeError(f"polytope has {p.d} facets; an even count is required")
    rank, nullity = rank_gf2(boundary_op(p))
    return nullity - rank


def hf(p: Polytope) -> int:
    """The invariant for arbitrary facet parity: hf_even(P) for an even facet
    count, and for an odd one the square root of hf_even(P x P).

    By Kuenneth hf_even(P x P) = hf(P)^2, so for even P the product would
    only square hf_even(P), which is non-negative: its support is even, so
    the rank is at most half the dimension.  P x P always has an even facet
    count and its even invariant is a perfect square; a non-square value
    would expose a soundness bug, hence the error.  The odd route doubles
    the operator's dimension, so it reaches dimension DIMENSION_LIMIT // 2.
    """
    if p.is_even():
        return hf_even(p)
    squared = hf_even(product(p, p))
    if squared < 0:
        raise NonSquareInvariantError(f"negative doubled invariant {squared}")
    root = isqrt(squared)
    if root * root != squared:
        raise NonSquareInvariantError(f"doubled invariant {squared} is not a perfect square")
    return root
