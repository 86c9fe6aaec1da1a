"""Moment polytopes given by facet inequalities <x, normal> + offset >= 0.

Facet normals are primitive integer vectors, offsets are exact rationals.
Unbounded polytopes are first class citizens; nothing here assumes
boundedness unless it says so.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress
from itertools import product as iter_product
from math import lcm
from operator import index, itemgetter, mul
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
            if not isinstance(f.offset, (int, Fraction)):
                raise PolytopeError(f"offset {f.offset!r} of facet {f.normal} is not exact")
            if len(f.normal) != self.dim:
                raise PolytopeError(f"normal {f.normal} has wrong length for dimension {self.dim}")
            if not lattice.is_primitive(f.normal):
                raise PolytopeError(f"normal {f.normal} is not primitive")
            if f in seen:
                raise PolytopeError(f"duplicate facet {f.normal}:{f.offset}")
            seen.add(f)
        _check_facet_count(self.dim, self.facets)
        if not _interior_nonempty(self.dim, _facet_rows(self.facets)):
            raise EmptyInteriorError("facet system has empty interior")

    # -- basic queries ------------------------------------------------------

    @property
    def d(self) -> int:
        return len(self.facets)

    @property
    def normals(self) -> tuple[IntVec, ...]:
        return tuple(f.normal for f in self.facets)

    def support(self, i: int, x) -> Fraction:
        """Value of the i-th facet functional at x."""
        nu, a = self.facets[i]
        return lattice.dot(nu, x) + a

    def support_values(self, x) -> tuple[Fraction, ...]:
        return tuple(self.support(i, x) for i in range(self.d))

    # -- predicates ---------------------------------------------------------

    def is_even(self) -> bool:
        return self.d % 2 == 0

    def is_symmetric(self) -> bool:
        """Whether the multiset of normals is closed under negation."""
        normals = Counter(self.normals)
        return normals == Counter(lattice.neg(n) for n in normals.elements())

    def is_delzant(self) -> bool:
        """Every vertex lies on exactly dim facets whose normals form a Z-basis.

        Decided per coordinate block (see _blocks), as is_compact is: a
        vertex of the product is one vertex per block, its active set is the
        union of theirs and its normal matrix is block-diagonal, so it is
        Delzant exactly when each block's vertex is.  If some block has no
        vertex, neither has the product, and the answer is vacuously True.
        Each distinct block is scanned once.
        """
        scans = [(block, _vertex_scan(block)) for block in _blocks(self)[1]]
        if not all(scan for _, scan in scans):
            return True
        return all(_delzant_at(block, scan.values()) for block, scan in scans)

    def is_compact(self) -> bool:
        """Bounded iff the normals have full rank and -sum(nu_i) is in the
        cone of dim linearly independent normals.

        Proof: with an interior point, bounded means no y != 0 has every
        <nu_i, y> >= 0, which (Farkas) means the normals positively span
        R^dim; with full rank, iff sum((1 + c_i) nu_i) = 0 with all c_i >= 0,
        i.e. -sum(nu_i) is in their cone (Caratheodory: that of dim of them).
        A product is compact exactly when each factor is, so the test runs
        on each coordinate block (see _blocks) and is true when every block
        is.  A coordinate no normal touches is a block with no facets, which
        is not compact; dimension 0 has no blocks and is.  Each distinct
        block is tested once.
        """
        return all(_compact_scan(block) for block in _blocks(self)[1])

    # -- geometry -----------------------------------------------------------

    def vertices(self) -> tuple[Vertex, ...]:
        """All 0-dimensional faces, sorted by coordinates.

        The vertices of a product are the products of its factors'
        vertices, so the facet system is split into coordinate blocks (see
        _blocks), each distinct block is enumerated once by _vertex_scan,
        and the result is the cartesian product of the blocks' vertices:
        each point scattered back into its coordinates, each active set the
        union of the blocks' active facets (equal blocks share one scan,
        read through each block's own coordinates and facet indices).  A
        block with no facets has no vertices; dimension 0 has the single
        vertex ().  Active sets record every facet through the point, so
        degenerate vertices are visible.
        """
        point = [Fraction(0)] * self.dim
        found = []
        layout, distinct = _blocks(self)
        scans = [[(lattice.as_fractions(*q), on) for q, on in _vertex_scan(block).items()]
                 for block in distinct]
        for choice in iter_product(*(scans[k] for _, _, k in layout)):
            active = set()
            for (coords, facets, _), (q, on) in zip(layout, choice):
                for c, x in zip(coords, q):
                    point[c] = x
                active.update(facets[i] for i in on)
            found.append(Vertex(point=tuple(point), active=frozenset(active)))
        found.sort(key=lambda v: v.point)
        return tuple(found)

    def canonical_form(self) -> Polytope:
        """Facets sorted by (normal, offset); the package's polytope identity.

        Not validated again: a permutation of the facets keeps every property
        __post_init__ checks, and a polytope already in that order is
        returned itself.
        """
        facets = tuple(sorted(self.facets))
        return self if facets == self.facets else _unvalidated(self.dim, facets)


@dataclass(frozen=True)
class Vertex:
    point: RatVec
    active: frozenset[int]


def _unvalidated(dim: int, facets: tuple[Facet, ...]) -> Polytope:
    """A Polytope built without __post_init__, for facets the caller has
    derived from validated ones in a way that keeps every checked property."""
    p = object.__new__(Polytope)
    object.__setattr__(p, "dim", dim)
    object.__setattr__(p, "facets", facets)
    return p


def _coordinate_blocks(masks: list[int]) -> list[tuple[int, list[int]]]:
    """The indices of the non-zero coordinate masks, grouped by block.

    Two coordinates share a block when some mask has both bits set.  Each
    mask merges, in one loop over the current blocks, those whose
    coordinate masks it meets, and the merged block goes last; blocks stay
    disjoint, so testing each against the growing mask is testing it
    against the mask itself, and one pass suffices.  Returns (coordinate
    mask, indices in increasing order) per block.
    """
    blocks: list[tuple[int, list[int]]] = []
    for i, mask in enumerate(masks):
        if mask:
            kept = []
            indices: list[int] = []
            for block in blocks:
                if block[0] & mask:
                    mask |= block[0]
                    indices += block[1]
                else:
                    kept.append(block)
            # every index met so far is below i
            indices.sort()
            indices.append(i)
            kept.append((mask, indices))
            blocks = kept
    return blocks


def _split(dim: int, rows) -> list[tuple[list[int], list[int]]]:
    """The coordinate blocks of rows that start with dim normal entries:
    (coordinates, row indices) per block, ordered by first coordinate.

    Two coordinates share a block when some row's normal has both non-zero
    (compress reads the first dim entries only, not pruning's constant); a
    coordinate no row touches is a block with no rows.  A row with no zero
    entry touches every coordinate, so it gives one block before any mask
    is built.  Callers read one block as "use the system as it is".
    """
    if any(0 not in row for row in rows):
        return [(list(range(dim)), list(range(len(rows))))]
    bits = [1 << c for c in range(dim)]
    split = _coordinate_blocks([sum(compress(bits, row)) for row in rows])
    touched = sum(mask for mask, _ in split)
    split += [(1 << c, []) for c in range(dim) if not touched >> c & 1]
    return [([c for c in range(dim) if mask >> c & 1], members)
            for mask, members in sorted(split, key=lambda b: b[0] & -b[0])]


def _blocks(p: Polytope) -> tuple[list[tuple[list[int], list[int], int]], list[Polytope]]:
    """p split into coordinate blocks (_split of its normals): the layout,
    (coordinates, facet indices, k) per block, and the distinct subsystems,
    the k-th of which is the block's.

    p is the product of the blocks' subsystems up to a permutation of
    coordinates and facets.  Each subsystem holds the block's facets in p's
    order, with normals restricted to the block's coordinates (still
    primitive: the entries dropped are zero); a one-block p is its own
    subsystem, with no restricted copy.  Each block is matched once by ==
    against the subsystems kept so far, not hashed: a hash reads every
    Fraction offset in Python code, where unequal blocks mostly differ
    first in their dimension or their integer normals.  So equal blocks
    share one subsystem, and each distinct one is scanned once.
    """
    split = _split(p.dim, p.normals)
    layout: list[tuple[list[int], list[int], int]] = []
    distinct: list[Polytope] = []
    for coords, members in split:
        block = p if len(split) == 1 else _unvalidated(len(coords), tuple(
            Facet(tuple(p.facets[i].normal[c] for c in coords), p.facets[i].offset)
            for i in members))
        k = next((k for k, seen in enumerate(distinct) if seen == block), len(distinct))
        if k == len(distinct):
            distinct.append(block)
        layout.append((coords, members, k))
    return layout, distinct


def _vertex_scan(p: Polytope) -> dict[tuple[IntVec, int], frozenset[int]]:
    """The vertices of p as {(numerators, denominator): active facet
    indices}, by a scan of all dim-subsets of facets.

    One solve_exact per subset; a subset with an invertible normal matrix
    has a unique solution, the candidate point P / D in lowest terms, so
    each point has one key.  The facet rows are scaled to integers once
    and their offset column negated, giving the augmented rows
    (N_i, -A_i) of N_i . x = -A_i that each subset's solve takes as they
    are.  P / D is tested by the sign of the integer N_i . P + A_i D for
    each row, with D > 0; no Fraction is built.
    """
    n = p.dim
    rows = lattice.integer_rows([(*f.normal, f.offset) for f in p.facets])
    for row in rows:
        row[n] = -row[n]
    found: dict[tuple[IntVec, int], frozenset[int]] = {}
    for subset in combinations(rows, n):
        point = lattice.solve_exact(subset)
        if point is None or point in found:
            continue
        num, den = point
        active = []
        for i, row in enumerate(rows):
            # map stops at len(num) = n, before the column row[n] = -A_i
            value = sum(map(mul, row, num)) - row[n] * den
            if value < 0:
                break
            if value == 0:
                active.append(i)
        else:
            found[point] = frozenset(active)
    return found


def _compact_scan(p: Polytope) -> bool:
    """is_compact's test on p: one solve_exact per dim-subset of normals,
    unique exactly on a basis, whose cone holds -sum(nu_i) iff no
    coordinate is negative, read off the numerators (the denominator is
    > 0)."""
    n = p.dim
    normals = p.normals
    if lattice.rank_exact(normals) < n:
        return False  # recession cone contains a line
    deficit = [-sum(column) for column in zip(*normals)]
    for basis in combinations(normals, n):
        coeffs = lattice.solve_exact(zip(*basis, deficit))
        if coeffs is not None and all(c >= 0 for c in coeffs[0]):
            return True
    return False


def _facet_rows(facets) -> list[tuple[int, ...]]:
    """The facets as rows (normal, D * offset) of the dilation D P, D the
    lcm of the offsets' denominators, read without building a Fraction."""
    den = lcm(*(f.offset.denominator for f in facets))
    return [(*f.normal, f.offset.numerator * (den // f.offset.denominator)) for f in facets]


def _check_facet_count(dim: int, facets) -> None:
    if len(facets) < dim:
        raise PolytopeError(f"{len(facets)} facets cannot cut out a {dim}-dimensional polytope")


def _delzant_at(p: Polytope, actives) -> bool:
    """Whether each active set holds exactly dim facets of p whose normals
    form a Z-basis; actives are the active sets of p's vertices, as
    frozensets of facet indices."""
    for active in actives:
        if len(active) != p.dim:
            return False
        mat = tuple(p.facets[i].normal for i in sorted(active))
        if abs(lattice.det_exact(mat)) != 1:
            return False
    return True


def polytope(dim: int, facets) -> Polytope:
    """Build a Polytope from (normal, offset) pairs, coercing to exact types.

    Normal entries go through operator.index, which refuses floats and
    strings instead of truncating them."""
    fs = []
    for normal, offset in facets:
        if isinstance(offset, float):
            raise PolytopeError("offsets must be exact (int, Fraction or 'p/q' string)")
        fs.append(Facet(tuple(map(index, normal)), Fraction(offset)))
    return Polytope(dim, tuple(fs))


def product(p1: Polytope, p2: Polytope) -> Polytope:
    """Cartesian product: left factor normals zero-padded right, then right
    factor normals zero-padded left; offsets and facet order preserved."""
    z1 = (0,) * p1.dim
    z2 = (0,) * p2.dim
    facets = tuple(Facet(f.normal + z2, f.offset) for f in p1.facets) + tuple(
        Facet(z1 + f.normal, f.offset) for f in p2.facets
    )
    # not validated again: padded normals stay primitive, interiors multiply
    return _unvalidated(p1.dim + p2.dim, facets)


def prune_redundant(p: Polytope) -> Polytope:
    """Drop every facet whose removal leaves the feasible set unchanged.

    Among parallel facets the smaller offset is the binding one, so the
    others go; exact duplicates collapse to a single copy.  The facets go
    to pruning as rows over one denominator (_facet_rows), and the kept
    rows map back to p's own facets, in canonical order.  Only the facet
    count is checked: dropping facets keeps the rest valid but may leave
    fewer than dim.
    """
    by_row = dict(zip(_facet_rows(p.facets), p.facets))
    kept = _prune_facet_list(p.dim, sorted(by_row))
    _check_facet_count(p.dim, kept)
    return _unvalidated(p.dim, tuple(by_row[row] for row in kept))


def equidistant_point(p: Polytope):
    """The unique interior point with all facet values equal, if it exists.

    Solves support_i(x) = t for all i in the unknowns (x, t), as the
    augmented rows (nu_i, -1 | -a_i) scaled to integers; returns (point,
    t) when the solution is unique with t > 0, else None.
    """
    if not p.facets:
        return None
    n = p.dim
    rows = lattice.integer_rows([(*f.normal, -1, f.offset) for f in p.facets])
    for row in rows:
        row[-1] = -row[-1]
    sol = lattice.solve_exact(rows)
    if sol is None or sol[0][n] <= 0:
        return None
    num, den = sol
    return lattice.as_fractions(num[:n], den), Fraction(num[n], den)


# -- exact feasibility (Fourier-Motzkin) -------------------------------------

def _tightest(rows) -> list[tuple[int, ...]]:
    """The integer rows, each divided by the gcd of its entries, with only
    the least constant kept per coefficient vector: the tightest of
    parallel strict rows."""
    best: dict[tuple[int, ...], tuple[int, ...]] = {}
    for row in rows:
        g = lattice.vec_gcd(row)
        row = tuple(x // g for x in row) if g > 1 else tuple(row)
        key = row[:-1]
        if key not in best or row[-1] < best[key][-1]:
            best[key] = row
    return list(best.values())


def feasible(rows, nvars: int) -> bool:
    """Whether some x has <c, x> + b > 0 for every integer row (c_1, ..., c_nvars, b).

    Decided by Fourier-Motzkin elimination, last variable first, down to
    x_0; the rows go through _tightest before each elimination.  What is
    left are bounds c x_0 + b > 0, which hold together iff every constant
    row (c = 0) has b > 0 and the greatest lower bound -b/c (c > 0) is
    below the least upper bound -b/c (c < 0), compared by cross-multiplying.
    """
    if nvars == 0:
        return all(r[-1] > 0 for r in rows)
    cons = rows
    for var in range(nvars - 1, 0, -1):
        pos, negs, zeros = [], [], []
        for r in _tightest(cons):
            c = r[var]
            (pos if c > 0 else negs if c < 0 else zeros).append(r)
        cons = zeros
        # with no pos or no negs the variable escapes to +/- infinity
        for rp in pos:
            for rn in negs:
                fp, fn = -rn[var], rp[var]
                cons.append([fp * a + fn * b for a, b in zip(rp, rn)])
    low = high = None  # (c, b) of the greatest lower and the least upper bound
    for r in cons:
        c, b = r[0], r[-1]
        if c > 0:
            if low is None or b * low[0] < low[1] * c:
                low = c, b
        elif c < 0:
            if high is None or b * high[0] > high[1] * c:
                high = c, b
        elif b <= 0:
            return False
    # -b_low / c_low < -b_high / c_high, multiplied by c_low * -c_high > 0
    return low is None or high is None or low[1] * high[0] < high[1] * low[0]


def _interior_nonempty(dim: int, rows) -> bool:
    """Whether some x has <c, x> + b > 0 for every integer row: x = 0, or FM."""
    return all(row[-1] > 0 for row in rows) or feasible(rows, dim)


def _ray_witnessed(rows) -> set[int]:
    """The indices of the facets that a ray from the origin proves irredundant.

    rows are the facets scaled to integer rows (N_j, A_j), no two of them
    one half-space, and every A_j must be > 0, so the origin is interior.
    The ray along -N_i meets facet j at time A_j / <N_j, N_i> when
    <N_j, N_i> > 0; times are compared by cross-multiplying.  The set T of
    facets met first is met at one point q, where every other facet is
    > 0, so near q the polytope is the cone where every g in T is >= 0.
    When the normals of T are linearly independent, each g in T has points
    near q with g = 0 and every other member of T > 0, so every facet of
    the system but g is > 0 there: g is irredundant.  A T of one facet is
    independent, and so is one of two: both normals pair positively with
    N_i, so they are not opposite, and parallel ones met at one time would
    be one half-space.  From three up to dim members lattice.rank_exact
    decides; more than dim are dependent and prove nothing.  Scaling row j
    by c_j > 0 multiplies every hit time of ray i by the same 1 / c_i and
    keeps every rank, so the proven set does not depend on the scaling.
    One ray per facet, all read off one Gram matrix of the N_j, each
    product computed once; no FM.
    """
    normals = [row[:-1] for row in rows]
    gram = [[0] * len(rows) for _ in rows]
    for i, nu in enumerate(normals):
        for j in range(i, len(rows)):
            gram[i][j] = gram[j][i] = sum(map(mul, nu, normals[j]))
    dim = len(rows[0]) - 1 if rows else 0
    proven = set()
    for products in gram:
        first, time = [], None  # the facets met earliest, and that time as (A, s)
        for j, s in enumerate(products):
            if s <= 0:
                continue
            a = rows[j][-1]
            if time is None or a * time[1] < time[0] * s:
                first, time = [j], (a, s)
            elif a * time[1] == time[0] * s:
                first.append(j)
        if len(first) <= 2 or (len(first) <= dim
                               and lattice.rank_exact([normals[j] for j in first]) == len(first)):
            proven.update(first)
    return proven


def _on_hyperplane(f: list[int], rows) -> list[list[int]]:
    """The rows restricted to the hyperplane f = 0, in one variable fewer.

    All rows are integer rows (coefficients, constant).  x_k is substituted
    out at the coordinate k where |f[k]| is least and non-zero: with
    p = f[k], the row |p| g - sign(p) g[k] f vanishes at k and equals |p| g
    wherever f = 0, so on the hyperplane it is > 0 exactly where g is.
    Column k is then dropped; in dimension 1 only the constants are left.
    """
    k = p = 0
    for c in range(len(f) - 1):
        x = abs(f[c])
        if x and (not p or x < p):
            k, p = c, x
    sign = 1 if f[k] > 0 else -1
    cons = []
    for g in rows:
        q = sign * g[k]
        row = [p * x - q * y for x, y in zip(g, f)]
        del row[k]
        cons.append(row)
    return cons


def _prune_facet_list(dim: int, rows) -> list[tuple[int, ...]]:
    """The irredundant rows of sorted, distinct integer facet rows, in order.

    The rows' interior must be non-empty; that is not checked here, and no
    normal may be zero.  The rows are split into coordinate blocks
    (_split), and each block's rows, restricted to its coordinates and the
    constant, are pruned on their own by _prune_block.  With a non-empty
    interior the feasible set is the product of the blocks' feasible sets,
    each with non-empty interior, and a facet constrains only its own
    block's factor; so a facet is redundant in the whole iff it is
    redundant in its block.  One block is pruned as it is, with no
    restricted copy.
    """
    split = _split(dim, rows)
    if len(split) == 1:
        return [rows[i] for i in _prune_block(dim, rows)]
    kept = []
    for coords, members in split:
        if members:  # a coordinate no row touches constrains nothing
            restrict = itemgetter(*coords, dim)
            block = [restrict(rows[i]) for i in members]
            kept += (members[j] for j in _prune_block(len(coords), block))
    return [rows[i] for i in sorted(kept)]


def _prune_block(dim: int, rows) -> list[int]:
    """The indices of the irredundant rows of distinct integer facet rows,
    in increasing order.

    The rows' interior must be non-empty.  Only an FM infeasibility proof
    drops a facet.  When every offset is > 0, ray witnesses from the
    origin (_ray_witnessed) first prove a core of facets irredundant with
    no FM call.  Every other facet f is tested by FM against the core
    alone first; only then are the survivors of those tests tested again,
    each against the core and every other survivor still kept, so no full
    test carries a facet the core would drop.  A lone survivor is kept
    with no full test: its full test would be against the core alone,
    the core test it passed (or, with no core, against nothing).  That
    rule reads only the set of survivors, not the order they are tested
    in, so the FM calls are the same for every scaling of the rows.  The
    irredundant facets of a system with non-empty interior do not depend
    on the order they are found in, so the result is the plain FM loop's.

    Each test is asked on f's hyperplane, in dim - 1 variables
    (_on_hyperplane): f is redundant iff no point y with f(y) = 0
    satisfies every other kept facet strictly.  Take z strictly inside the
    facets' interior; every kept facet is > 0 at z.  If some x has
    f(x) < 0 and every other facet >= 0, the point y of the segment [z, x]
    where f = 0 puts positive weight on z, so every other facet is > 0 at
    y.  Conversely, from such a y a small step across f gives such an x.
    The core test is the same argument, since z is inside the core too.

    The rows are (normal, D * offset), the dilation D P for one D > 0, so
    sorted rows are sorted facets.  No answer here changes when the system
    is dilated or a row scaled by a positive factor: the hit times along a
    ray change by one common factor or not at all, and ranks not at all
    (_ray_witnessed); _on_hyperplane's pivot depends on the normal's
    direction alone, and FM decides exactly a question that x -> D x and
    positive factors keep.  So the kept set, and the FM calls made, are
    the ones any other scaling gives.
    """
    core = _ray_witnessed(rows) if all(row[-1] > 0 for row in rows) else set()
    core_rows = [rows[j] for j in sorted(core)]
    survivors = {}  # row index -> the core's rows on its hyperplane
    for i in range(len(rows)):
        if i not in core:
            # the core is a subset of the others, so a proof against it is one
            on_core = _on_hyperplane(rows[i], core_rows)
            if not core or feasible(on_core, dim - 1):
                survivors[i] = on_core
    if len(survivors) > 1:
        for i in list(survivors):
            rest = [rows[j] for j in survivors if j != i]
            if not feasible(survivors[i] + _on_hyperplane(rows[i], rest), dim - 1):
                del survivors[i]
    return sorted(core.union(survivors))
