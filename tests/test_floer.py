import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generator, mat_vec, random_polytope, xor_square
from momentcert import floer
from momentcert.errors import DimensionLimitError, OddPolytopeError
from momentcert.floer import DIMENSION_LIMIT, BoundaryOp, boundary_op, hf, hf_even, rank_gf2
from momentcert.polytope import _coordinate_blocks, polytope, product
from momentcert.reduction import cp1, cube, simplex


def hexagon():
    return polytope(
        2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1), ((1, 1), 1), ((-1, -1), 1)]
    )


def dense_rank(op: BoundaryOp) -> tuple[int, int]:
    """Naive oracle: materialize the 0/1 matrix straight from the facet
    translations and eliminate without any bit packing."""
    size = 1 << op.dim
    matrix = [[0] * size for _ in range(size)]
    for col in range(size):
        for t in op.translations:
            matrix[col ^ t][col] ^= 1
    rank = 0
    for col in range(size):
        piv = next((r for r in range(rank, size) if matrix[r][col]), None)
        if piv is None:
            continue
        matrix[rank], matrix[piv] = matrix[piv], matrix[rank]
        for r in range(size):
            if r != rank and matrix[r][col]:
                matrix[r] = [a ^ b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank, size - rank


def full_rank_gf2(op: BoundaryOp) -> tuple[int, int]:
    """Reference elimination over all 2^n rows of the full space, with no
    square law and no coset split: each row is the generator XOR-translated
    by its index, packed in one integer."""
    size = 1 << op.dim
    g = generator(op)
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


def assert_matches_oracles(op: BoundaryOp) -> tuple[int, int]:
    got = rank_gf2(op)
    assert got == full_rank_gf2(op), op
    if op.dim <= 6:
        assert got == dense_rank(op), op
    return got


def support_size(op: BoundaryOp) -> int:
    return bin(generator(op)).count("1")


# -- construction --------------------------------------------------------------

def test_segment_operator_vanishes():
    op = boundary_op(cp1())
    assert op.translations == (1, 1)
    assert generator(op) == 0


def test_simplex2_translations():
    op = boundary_op(simplex(2))
    # masks for (1,0), (0,1), (1,1)
    assert op.translations == (1, 2, 3)
    # the all-plus vector maps to the sum of its three translates
    assert generator(op) == 0b1110


def test_hexagon_operator_vanishes():
    assert generator(boundary_op(hexagon())) == 0


def test_mod2_reduction_ignores_even_shifts():
    p1 = polytope(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)])
    p2 = polytope(2, [((3, -2), 1), ((0, 1), 1), ((-1, -1), 1)])
    assert boundary_op(p1) == boundary_op(p2)


def test_facet_permutation_preserves_rank():
    p = simplex(3)
    shuffled = polytope(3, list(reversed([(f.normal, f.offset) for f in p.facets])))
    assert rank_gf2(boundary_op(p)) == rank_gf2(boundary_op(shuffled))


# -- rank ----------------------------------------------------------------------

def test_simplex2_squared_rank():
    op = boundary_op(product(simplex(2), simplex(2)))
    assert rank_gf2(op) == (6, 10)


def test_zero_operator_rank():
    op = boundary_op(cube(3))
    assert generator(op) == 0
    assert rank_gf2(op) == (0, 8)


def test_boundary_op_rejects_translations_out_of_range():
    with pytest.raises(ValueError):
        BoundaryOp(2, (5,))
    with pytest.raises(ValueError):
        BoundaryOp(2, (-1,))
    with pytest.raises(ValueError):
        BoundaryOp(-1, ())
    assert BoundaryOp(2, (0, 3)).translations == (0, 3)


def test_dimension_limit():
    # raised before elimination starts: none of the 2^dim rows is built
    with pytest.raises(DimensionLimitError):
        rank_gf2(BoundaryOp(DIMENSION_LIMIT + 1, (1,)))


def test_rank_matches_dense_oracle():
    rng = random.Random(1618)
    for _ in range(120):
        n = rng.randint(1, 6)
        d = rng.randint(1, 9)
        op = BoundaryOp(n, tuple(sorted(rng.randrange(1 << n) for _ in range(d))))
        assert rank_gf2(op) == dense_rank(op)


def test_rank_on_a_coset_of_a_proper_subgroup():
    # the support lies in t0 + H with dim H < n, so the rank is one copy of
    # the rank on H per coset
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randint(1, 9)
        basis = [rng.randrange(1 << n) for _ in range(rng.randrange(n))]
        t0 = rng.randrange(1 << n)
        translations = []
        for _ in range(rng.randint(1, 8)):
            t = t0
            for b in basis:
                if rng.random() < 0.5:
                    t ^= b
            translations.append(t)
        assert_matches_oracles(BoundaryOp(n, tuple(sorted(translations))))


def test_even_support_below_half_rank():
    # sums of products of factors (1 + x^a) square to zero and often have
    # rank below half the dimension, where stopping at half must not fire
    rng = random.Random(8128)
    below_half = 0
    for _ in range(60):
        n = rng.randint(2, 9)
        translations = []
        for _ in range(rng.randint(1, 2)):
            factors = [rng.randrange(1, 1 << n) for _ in range(rng.randint(2, 3))]
            subset_sums = [0]
            for a in factors:
                subset_sums += [t ^ a for t in subset_sums]
            translations += subset_sums
        op = BoundaryOp(n, tuple(sorted(translations)))
        assert support_size(op) % 2 == 0
        rank, _ = assert_matches_oracles(op)
        if 0 < rank < 1 << (n - 1):
            below_half += 1
    assert below_half >= 30


def test_odd_support_is_a_unit():
    rng = random.Random(9973)
    odd = 0
    for _ in range(60):
        n = rng.randint(1, 9)
        op = BoundaryOp(n, tuple(sorted(rng.randrange(1 << n) for _ in range(rng.randint(1, 9)))))
        if support_size(op) % 2:
            assert assert_matches_oracles(op) == (1 << n, 0)
            odd += 1
    assert odd >= 20


# -- the block split -------------------------------------------------------------

def block_translations(rng: random.Random, n: int) -> tuple[list[int], list[list[int]]]:
    """Random translations built block by block on shuffled coordinates.

    The shuffled coordinates are cut into runs.  Some runs stay untouched;
    each other run gets one to four random translations inside it, each
    taken one to three times, so a block may hold an odd number of them and
    a translation of even multiplicity cancels.  Returns the translations
    and the touched runs.
    """
    coords = list(range(n))
    rng.shuffle(coords)
    translations, runs = [], []
    while coords:
        size = rng.randint(1, 4)
        run, coords = coords[:size], coords[size:]
        if rng.random() < 0.2:
            continue
        runs.append(run)
        for _ in range(rng.randint(1, 4)):
            t = sum(1 << c for c in run if rng.random() < 0.6)
            translations += [t] * rng.randint(1, 3)
    return translations, runs


def block_supports(op: BoundaryOp, runs: list[list[int]]) -> list[int]:
    """For each run, how many nonzero elements of the generator's support lie in it."""
    g = generator(op)
    masks = [sum(1 << c for c in run) for run in runs]
    return [sum(g >> s & 1 for s in range(1, 1 << op.dim) if s & ~mask == 0) for mask in masks]


def test_block_split_matches_oracles():
    rng = random.Random(6174)
    seen = {"folded": 0, "translation 0": 0, "untouched coordinate": 0, "odd block": 0,
            "repeated translation": 0, "even translation 0": 0}
    for _ in range(800):
        n = rng.randint(3, 10)
        translations, runs = block_translations(rng, n)
        # translation 0 with odd multiplicity (1 or 3) flips the support's
        # parity: mostly to even, so that the blocks are folded rather than
        # the unit case taken; with even multiplicity (2) it cancels
        flip = support_size(BoundaryOp(n, tuple(translations))) % 2 ^ (rng.random() < 0.15)
        zeros = rng.choice((1, 3)) if flip else rng.choice((0, 0, 2))
        op = BoundaryOp(n, tuple(sorted(translations + [0] * zeros)))
        assert_matches_oracles(op)
        counts = [c for c in block_supports(op, runs) if c]
        if support_size(op) % 2 == 0 and len(counts) >= 2:
            seen["folded"] += 1
            seen["translation 0"] += generator(op) & 1
            seen["untouched coordinate"] += sum(map(len, runs)) < n
            seen["odd block"] += any(c % 2 for c in counts)
            seen["repeated translation"] += len(set(op.translations)) < len(op.translations)
            seen["even translation 0"] += zeros == 2
    # P x P and P x Q x P: the blocks of P's support repeat, shifted up by
    # the coordinates before the copy; the dimension stays within the dense
    # oracle's reach
    seen["repeated block"] = 0
    for _ in range(200):
        n1 = rng.randint(1, 3)
        n2 = rng.randint(0, 6 - 2 * n1) if rng.random() < 0.5 else 0
        p_translations, _ = block_translations(rng, n1)
        q_translations, _ = block_translations(rng, n2)
        translations = (p_translations + [t << n1 for t in q_translations]
                        + [t << (n1 + n2) for t in p_translations])
        op = BoundaryOp(2 * n1 + n2, tuple(sorted(translations)))
        assert op.dim <= 6
        assert_matches_oracles(op)
        p_support = generator(BoundaryOp(n1, tuple(p_translations)))
        seen["repeated block"] += support_size(op) % 2 == 0 and p_support > 1
    assert seen["folded"] >= 300, seen
    assert min(seen.values()) >= 50, seen


@st.composite
def block_operators(draw):
    n = draw(st.integers(0, 8))
    coords = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=n)))
    translations = []
    for run in (coords[a:b] for a, b in zip([0, *cuts], [*cuts, n])):
        for _ in range(draw(st.integers(0, 4))):
            translations.append(sum(1 << c for c in run if draw(st.booleans())))
    if draw(st.booleans()):
        translations.append(0)
    return BoundaryOp(n, tuple(sorted(translations)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(block_operators())
def test_block_split_property(op):
    assert_matches_oracles(op)


def test_hf_of_p_times_p_eliminates_on_p(monkeypatch):
    rng = random.Random(3301)
    p = random_polytope(rng, 6, 9, even=False)
    expected = hf(p)
    dims, calls = [], []
    block_rank, rank = floer._square_zero_rank, floer.rank_gf2
    monkeypatch.setattr(
        floer, "_square_zero_rank", lambda dim, support: dims.append(dim) or block_rank(dim, support)
    )
    monkeypatch.setattr(floer, "rank_gf2", lambda op: calls.append(op.dim) or rank(op))
    assert hf(p) == expected
    assert calls == [12]
    # each block of P's support is eliminated once, not once per copy
    g = generator(boundary_op(p))
    blocks = _coordinate_blocks([s for s in range(1, 1 << p.dim) if g >> s & 1])
    assert dims == [mask.bit_count() for mask, _ in blocks] == [6]


def test_hf_of_an_even_polytope_is_hf_even():
    # by Kuenneth hf_even(P x P) = hf(P)^2, so an even P needs only its own
    # operator: hf agrees with hf_even, the closed form and the square root
    rng = random.Random(2029)
    for n in range(1, 7):
        for _ in range(6):
            p = random_polytope(rng, n, rng.randint(n, 9), even=True)
            rank, _ = dense_rank(boundary_op(p))
            value = hf(p)
            assert value == hf_even(p) == (1 << n) - 2 * rank, p
            assert value * value == hf_even(product(p, p)), p


def test_hf_builds_no_product_for_an_even_polytope(monkeypatch):
    def refuse(*factors):
        raise AssertionError("hf built a product")

    monkeypatch.setattr(floer, "product", refuse)
    assert hf(hexagon()) == 4
    assert hf(cube(3)) == 8
    assert hf(simplex(3)) == 4
    with pytest.raises(AssertionError):
        hf(simplex(2))


@pytest.mark.parametrize("n, expected", [(7, 16), (9, 32), (11, 64), (13, 128)])
def test_hf_of_even_simplices_past_dimension_6(n, expected):
    # 2^ceil(n/2), as for n <= 6; P x P would exceed DIMENSION_LIMIT
    assert hf(simplex(n)) == expected == 2 ** ((n + 1) // 2)


def test_hf_matches_the_closed_form():
    # hf(P) = 2^n - 2 rank(L_m) with m = g + (|g| mod 2): the generator made
    # square-zero by adding the scalar 1 when its support is odd; the
    # formula needs no P x P
    rng = random.Random(1123)
    odd = 0
    for _ in range(40):
        n = rng.randint(1, 6)
        p = random_polytope(rng, n, rng.randint(n, 9))
        op = boundary_op(p)
        if support_size(op) % 2:
            op = BoundaryOp(n, op.translations + (0,))
            odd += 1
        rank, _ = dense_rank(op)
        assert hf(p) == (1 << n) - 2 * rank, p
    assert odd >= 10


# -- the square law -------------------------------------------------------------

@st.composite
def operators(draw):
    n = draw(st.integers(0, 8))
    translations = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    return BoundaryOp(n, tuple(sorted(translations)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(operators())
def test_generator_squares_to_its_support_size_mod_2(op):
    assert xor_square(generator(op)) == support_size(op) % 2


def test_square_law_on_random_polytopes():
    rng = random.Random(2718)
    for _ in range(80):
        n = rng.randint(1, 5)
        p = random_polytope(rng, n, rng.randint(n, 10))
        squared = xor_square(generator(boundary_op(p)))
        assert squared == (0 if p.is_even() else 1)


# -- invariants ------------------------------------------------------------------

def test_hf_even_examples():
    assert hf_even(cp1()) == 2
    assert hf_even(product(simplex(2), simplex(2))) == 4
    assert hf_even(cube(3)) == 8
    with pytest.raises(OddPolytopeError):
        hf_even(simplex(2))


def test_hf_examples():
    assert hf(simplex(2)) == 2
    assert hf(cp1()) == 2
    assert hf(hexagon()) == 4


def test_symmetric_even_gives_full_invariant():
    rng = random.Random(31415)
    for _ in range(20):
        n = rng.randint(1, 4)
        half = random_polytope(rng, n, rng.randint(n, 4))
        facets = [(f.normal, f.offset) for f in half.facets]
        facets += [(tuple(-x for x in nu), a) for nu, a in facets]
        try:
            sym = polytope(n, facets)
        except Exception:
            continue
        assert sym.is_symmetric()
        assert hf_even(sym) == 2**n


def test_invariant_under_unimodular_change():
    # an invertible-mod-2 change of basis permutes the sign vectors, so the
    # operator rank cannot move
    from momentcert.polytope import Facet, Polytope

    rng = random.Random(5150)
    for _ in range(15):
        n = rng.randint(2, 4)
        p = random_polytope(rng, n, rng.randint(n, 8))
        change = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(5):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            change[i] = [a + b for a, b in zip(change[i], change[j])]
        moved = Polytope(
            n, tuple(Facet(mat_vec(change, f.normal), f.offset) for f in p.facets)
        )
        assert rank_gf2(boundary_op(moved)) == rank_gf2(boundary_op(p))


def test_kunneth_on_random_even_pairs():
    rng = random.Random(1729)
    done = 0
    while done < 25:
        n1 = rng.randint(1, 3)
        n2 = rng.randint(1, 3)
        p1 = random_polytope(rng, n1, rng.randint(n1, 7), even=True)
        p2 = random_polytope(rng, n2, rng.randint(n2, 7), even=True)
        assert hf_even(product(p1, p2)) == hf_even(p1) * hf_even(p2)
        done += 1
