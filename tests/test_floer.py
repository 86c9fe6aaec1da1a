import random

import pytest

from conftest import random_polytope
from momentcert.errors import DimensionLimitError, OddPolytopeError
from momentcert.floer import BoundaryOp, boundary_op, hf, hf_even, rank_gf2
from momentcert.polytope import polytope, product
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


# -- construction --------------------------------------------------------------

def test_segment_operator_vanishes():
    op = boundary_op(cp1())
    assert op.translations == (1, 1)
    assert op.is_zero()


def test_simplex2_translations():
    op = boundary_op(simplex(2))
    # masks for (1,0), (0,1), (1,1)
    assert op.translations == (1, 2, 3)
    # the all-plus vector maps to the sum of its three translates
    assert op.generator == 0b1110


def test_hexagon_operator_vanishes():
    assert boundary_op(hexagon()).is_zero()


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
    assert op.is_zero()
    assert rank_gf2(op) == (0, 8)


def test_dimension_limit():
    op = BoundaryOp(3, (1,))
    with pytest.raises(DimensionLimitError):
        rank_gf2(op, limit=2)


def test_rank_matches_dense_oracle():
    rng = random.Random(1618)
    for _ in range(120):
        n = rng.randint(1, 6)
        d = rng.randint(1, 9)
        op = BoundaryOp(n, tuple(sorted(rng.randrange(1 << n) for _ in range(d))))
        assert rank_gf2(op) == dense_rank(op)


# -- the square law -------------------------------------------------------------

def test_square_law_on_random_polytopes():
    rng = random.Random(2718)
    for _ in range(80):
        n = rng.randint(1, 5)
        p = random_polytope(rng, n, rng.randint(n, 10))
        op = boundary_op(p)
        squared = op.compose(op)
        if p.is_even():
            assert squared.is_zero()
        else:
            assert squared.is_identity()


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
    from momentcert.lattice import mat_vec
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
