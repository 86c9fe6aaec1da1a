import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mat_mul, solve_oracle
from conftest import smith_normal_form as two_matrix_smith_form
from momentcert.errors import SliceError
from momentcert.lattice import (
    _eliminate,
    det_exact,
    dot,
    identity,
    integer_rows,
    is_primitive,
    rank_exact,
    smith_normal_form,
    solve_exact,
    transpose,
)
from momentcert.reduction import section

INDEPENDENT = "section matrix must have independent columns"
ONTO = "transpose of the section matrix must map onto the reduced lattice"


def minors_gcd(mat, k):
    """gcd of all k x k minors, by brute-force enumeration."""
    nrows, ncols = len(mat), len(mat[0])
    g = 0
    for rows in combinations(range(nrows), k):
        for cols in combinations(range(ncols), k):
            sub = [[mat[i][j] for j in cols] for i in rows]
            g = gcd(g, det_exact(sub))
    return g


def diagonal(d):
    return [d[i][i] for i in range(min(len(d), len(d[0])))]


def assert_snf(mat):
    """D is a Smith form of mat with right transform V.

    Without U, U*mat*V = D is checked on V alone: with r non-zero factors,
    the columns of mat*V past r vanish and column j < r is d_j times a
    column q_j.  The r x r minors of (q_0 .. q_{r-1}) having gcd 1 is what
    lets those columns extend to a unimodular W, and U = W^(-1) then maps
    q_j to the j-th unit vector, so U*mat*V = D.
    """
    d, v = smith_normal_form(mat)
    assert len(d) == len(mat) and all(len(row) == len(mat[0]) for row in d)
    assert abs(det_exact(v)) == 1
    diag = diagonal(d)
    for i, x in enumerate(diag):
        assert x >= 0
        if i + 1 < len(diag) and diag[i + 1] != 0:
            assert x != 0 and diag[i + 1] % x == 0
        for j in range(len(d[0])):
            if j != i:
                assert d[i][j] == 0
    r = sum(1 for x in diag if x)
    cols = transpose(mat_mul(mat, v))
    assert all(x == 0 for col in cols[r:] for x in col)
    quotient = []
    for col, x in zip(cols, diag[:r]):
        assert all(y % x == 0 for y in col)
        quotient.append(tuple(y // x for y in col))
    if r:
        assert minors_gcd(transpose(quotient), r) == 1
    return diag


def test_snf_diag_2_3():
    diag = assert_snf(((2, 0), (0, 3)))
    assert diag == [1, 6]


def test_identity_matches_the_comprehension_over_entries():
    for n in range(16):
        assert identity(n) == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def test_snf_identity():
    diag = assert_snf(identity(3))
    assert diag == [1, 1, 1]


def test_snf_rank_deficient():
    # row/col reduction by hand: gcd 2, all 2x2 minors vanish
    diag = assert_snf(((2, 4), (4, 8)))
    assert diag == [2, 0]


def test_snf_single_column():
    assert assert_snf(((2,), (4,), (6,))) == [2]
    assert assert_snf(((3,), (5,))) == [1]


def test_snf_matches_minor_ladder_on_random_matrices():
    rng = random.Random(90125)
    for _ in range(60):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        mat = tuple(tuple(rng.randint(-6, 6) for _ in range(ncols)) for _ in range(nrows))
        diag = assert_snf(mat)
        running = 1
        for k in range(1, min(nrows, ncols) + 1):
            g = minors_gcd(mat, k)
            if g == 0:
                assert all(x == 0 for x in diag[k - 1 :])
                break
            # invariant factor ladder: d_1 * ... * d_k = gcd of k x k minors
            assert diag[k - 1] * running == g
            running = g


def _seeded_smith_input(rng):
    """A small integer matrix, sometimes with a zero row or column, a row
    that is a combination of others, or entries scaled to share a factor."""
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
    mat = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(ncols)] for _ in range(nrows)]
    shape = rng.randrange(5)
    if shape == 0:
        mat[rng.randrange(nrows)] = [0] * ncols
    elif shape == 1:
        j = rng.randrange(ncols)
        for row in mat:
            row[j] = 0
    elif shape == 2 and nrows > 1:
        c = rng.randint(-3, 3)
        mat[-1] = [x + c * y for x, y in zip(mat[0], mat[-2])]
    elif shape == 3:
        f = rng.choice((2, 3, 4, 6))
        mat = [[f * x + rng.choice((0, 0, 0, 1)) for x in row] for row in mat]
    return tuple(tuple(row) for row in mat)


def test_snf_matches_the_two_matrix_oracle():
    """D and V equal those of the Smith form that kept V in its own matrix."""
    for mat in ((), ((0,),), ((0, 0), (0, 0)), ((-4,),), ((2, 3),), ((2,), (3,))):
        assert smith_normal_form(mat) == two_matrix_smith_form(mat)
    branches = Counter()
    assert smith_normal_form(((2, 0), (0, 3))) == two_matrix_smith_form(((2, 0), (0, 3)), branches)
    # 3 is added to row 0, and then 2 leaves the remainder 1 in that row
    assert branches == {"remainder in column": 0, "remainder in row": 1, "row added": 1}
    rng = random.Random(1729)
    seen = {"zero row": 0, "zero column": 0, "rank deficit": 0,
            "negative pivot": 0, "pivot does not divide": 0}
    for _ in range(4000):
        mat = _seeded_smith_input(rng)
        assert smith_normal_form(mat) == two_matrix_smith_form(mat, branches), mat
        nonzero = [(abs(x), i, j, x) for i, row in enumerate(mat) for j, x in enumerate(row) if x]
        seen["zero row"] += any(not any(row) for row in mat)
        seen["zero column"] += any(not any(col) for col in transpose(mat))
        seen["rank deficit"] += rank_exact(mat) < min(len(mat), len(mat[0]))
        if nonzero:
            *_, first = min(nonzero)
            seen["negative pivot"] += first < 0
            seen["pivot does not divide"] += any(x % first for *_, x in nonzero)
    assert min(seen.values()) >= 800, seen
    # the branches the remainder test and the divisibility step decide
    assert len(branches) == 3 and min(branches.values()) >= 100, branches


def test_primitivity():
    assert is_primitive((1, 0))
    assert not is_primitive((2, 4))
    assert is_primitive((-1, -1))
    # the gcd of no entries, or of zeros only, is 0
    assert not is_primitive((0, 0, 0))
    assert not is_primitive(())


def test_primitive_iff_snf_unit():
    rng = random.Random(5)
    for _ in range(40):
        v = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 4)))
        column = tuple((x,) for x in v)
        assert is_primitive(v) == (diagonal(smith_normal_form(column)[0]) == [1])


def test_surjectivity_examples():
    section(((1, 0), (0, 1), (1, 1)))
    section(identity(4))
    with pytest.raises(SliceError, match=f"^{ONTO}$"):
        section(((2, 0), (0, 1)))
    with pytest.raises(SliceError, match=f"^{INDEPENDENT}$"):
        section(((1, 2, 3),))


def section_oracle(mat):
    """The parent's section check: rank first, then the gcd of the maximal
    minors, which is 1 exactly when the transpose maps onto the lattice."""
    cols = len(mat[0])
    if rank_exact(mat) != cols:
        return INDEPENDENT
    if cols and minors_gcd(mat, cols) != 1:
        return ONTO
    return None


def random_section_matrix(rng: random.Random):
    rows, cols = rng.randint(1, 5), rng.randint(0, 5)
    kind = rng.randrange(4)
    if kind == 0 and cols:  # rank deficient
        mat = low_rank(rng, rows, cols, rng.randint(0, min(rows, cols) - 1))
    else:
        mat = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    if kind == 1 and cols:  # a zero column
        j = rng.randrange(cols)
        mat = [row[:j] + [0] + row[j + 1:] for row in map(list, mat)]
    if kind == 2 and cols:  # a column scaled, so the transpose misses the lattice
        j, c = rng.randrange(cols), rng.choice((2, 3, -2))
        mat = [row[:j] + [c * row[j]] + row[j + 1:] for row in map(list, mat)]
    return tuple(tuple(row) for row in mat)


def test_section_check_matches_rank_and_minor_oracle():
    rng = random.Random(3331)
    seen = {INDEPENDENT: 0, ONTO: 0, None: 0}
    wide = 0
    for _ in range(3000):
        mat = random_section_matrix(rng)
        want = section_oracle(mat)
        seen[want] += 1
        wide += len(mat[0]) > len(mat)
        if want is None:
            sec = section(mat)
            assert sec.matrix == mat
        else:
            with pytest.raises(SliceError) as info:
                section(mat)
            assert str(info.value) == want, mat
    assert min(seen.values()) >= 300 and wide >= 300, (seen, wide)


def augment(mat, rhs):
    """The augmented system [mat | rhs] that solve_exact takes."""
    return tuple((*row, b) for row, b in zip(mat, rhs, strict=True))


def test_solve_exact_unique_and_underdetermined():
    # (numerators, denominator): the point (2, 2) is ((2, 2), 1)
    assert_same(solve_exact(((1, 1, 4), (1, -1, 0))), ((2, 2), 1))
    # a line of solutions has no unique one
    assert solve_exact(((1, 1, 3),)) is None
    assert solve_exact(((1, 0, 0), (1, 0, 1))) is None
    # consistent and overdetermined: the point (1, 1/2) all three rows agree on
    assert_same(solve_rational(((1, 0), (0, 1), (1, 1)), (1, Fraction(1, 2), Fraction(3, 2))),
                (Fraction(1), Fraction(1, 2)))
    assert_same(solve_exact(((2, 0, 2), (0, 2, 1), (2, 2, 3))), ((2, 1), 2))
    # no unknowns and a zero right-hand side: the empty point is the solution
    assert_same(solve_exact(((0,), (0,))), ((), 1))
    assert_same(solve_exact(()), ((), 1))


def test_solve_exact_on_overdetermined_systems_with_a_swap_and_a_negative_pivot():
    """The first row has no pivot in column 0, so the elimination swaps
    rows, and the last pivot is negative; the third row's right-hand side
    decides between consistent and inconsistent."""
    mat = ((0, -2), (1, 1), (3, 1))
    for rhs, unique in [((1, 0, 1), True), ((4, -3, -5), True),
                        ((1, 0, 2), False), ((4, -3, 0), False)]:
        system = augment(mat, rhs)
        pivots, last, swaps = _eliminate(list(system), 2)
        assert (pivots, last < 0, swaps) == ([0, 1], True, 1)
        want = solve_oracle(mat, rhs)
        got = solve_exact(system)
        if not unique:
            assert want is None and got is None
            continue
        assert want[1] == ()
        num, den = got
        assert den > 0 and gcd(den, *num) == 1
        assert tuple(Fraction(x, den) for x in num) == want[0]


def test_dot_refuses_vectors_of_different_lengths():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    assert dot((), ()) == 0
    for u, v in [((1, 2), (1,)), ((1,), (1, 2)), ((), (0,))]:
        with pytest.raises(ValueError):
            dot(u, v)


def test_transpose_roundtrip():
    m = ((1, 2, 3), (4, 5, 6))
    assert transpose(transpose(m)) == m


# -- the fraction-free kernel against Fraction Gauss-Jordan oracles ------------
#
# The three oracles are the Fraction eliminations rank_exact, det_exact and
# solve_exact were written as before the fraction-free kernel replaced them;
# solve_oracle lives in conftest, as the other modules check against it too.
# The reduced row echelon form is unique, so the kernel must return the same
# values: solve_exact gives the oracle's particular solution when its kernel
# basis is empty, and None when the basis is not empty or the system is
# inconsistent.


def rank_oracle(mat) -> int:
    rows = [[Fraction(x) for x in row] for row in mat]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def det_oracle(mat) -> Fraction:
    n = len(mat)
    rows = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for i in range(col + 1, n):
            if rows[i][col] != 0:
                f = rows[i][col] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return det


def assert_same(got, want):
    """Equal values of equal types, all the way down."""
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    else:
        assert got == want


def solve_rational(mat, rhs):
    """solve_exact on a rational system, the way the package's rational
    callers use it: the rows are scaled to integers once, and the
    Fractions are built from the result.  Checks that the result is in
    lowest terms over a denominator > 0, with int entries."""
    n = len(mat[0]) if mat else 0
    rows = integer_rows(augment(mat, rhs))
    sol = solve_exact(rows)
    if sol is None:
        return None
    num, den = sol
    assert type(num) is tuple and len(num) == n
    assert all(type(x) is int for x in (*num, den))
    assert den > 0 and gcd(den, *num) == 1, sol
    return tuple(Fraction(x, den) for x in num)


def assert_kernel_matches(mat, rhs):
    """Rank and determinant on mat's rows scaled to integers, which keeps
    the rank and multiplies the determinant by the row scales, the lcms of
    the rows' denominators, and the solve on the rational system."""
    rows = integer_rows(mat)
    scale = prod(lcm(*(x.denominator for x in row)) for row in mat)
    assert_same(rank_exact(rows), rank_oracle(mat))
    if all(len(row) == len(mat) for row in mat):
        det = det_oracle(mat) * scale
        assert det.denominator == 1
        assert_same(det_exact(rows), det.numerator)
    sol = solve_oracle(mat, rhs)
    assert_same(solve_rational(mat, rhs), None if sol is None or sol[1] else sol[0])


def random_entry(rng: random.Random):
    if rng.random() < 0.5:
        return rng.randint(-6, 6)
    return Fraction(rng.randint(-12, 12), rng.randint(1, 6))


def low_rank(rng: random.Random, m: int, n: int, k: int):
    """An m x n integer matrix of rank at most k, as a product m x k by k x n."""
    left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
    right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
    return tuple(
        tuple(sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n))
        for i in range(m)
    )


entries = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=8),
)


@st.composite
def systems(draw):
    m = draw(st.integers(0, 5))
    n = draw(st.integers(1, 5)) if m else 0
    mat = tuple(tuple(draw(entries) for _ in range(n)) for _ in range(m))
    rhs = tuple(draw(entries) for _ in range(m))
    return mat, rhs


@settings(max_examples=150, deadline=None, derandomize=True)
@given(systems())
def test_kernel_matches_fraction_oracles(system):
    assert_kernel_matches(*system)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(systems(), st.data())
def test_kernel_matches_on_rank_deficient_systems(system, data):
    # duplicate a combination of rows so the rank drops; the rhs picks
    # consistent or inconsistent at random
    mat, rhs = system
    if not mat:
        return
    a, b = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    i, j = data.draw(st.integers(0, len(mat) - 1)), data.draw(st.integers(0, len(mat) - 1))
    row = tuple(a * x + b * y for x, y in zip(mat[i], mat[j]))
    shift = data.draw(st.sampled_from([0, 0, 1, Fraction(1, 3)]))
    assert_kernel_matches(mat + (row,), rhs + (a * rhs[i] + b * rhs[j] + shift,))


def test_kernel_matches_fraction_oracles_on_seeded_cases():
    rng = random.Random(20111)
    for _ in range(4000):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        if m == 0:
            n = 0
        kind = rng.randrange(4)
        if kind == 0:
            mat = tuple(tuple(random_entry(rng) for _ in range(n)) for _ in range(m))
        else:
            mat = low_rank(rng, m, n, rng.randint(0, min(m, n)))
        if kind == 1:
            rhs = (0,) * m
        elif kind == 2 and n:
            # in the column span, so the system is consistent
            x = [random_entry(rng) for _ in range(n)]
            rhs = tuple(sum(a * b for a, b in zip(row, x)) for row in mat)
        else:
            rhs = tuple(random_entry(rng) for _ in range(m))
        assert_kernel_matches(mat, rhs)


def test_kernel_edge_cases():
    assert_kernel_matches((), ())
    assert_kernel_matches(((0, 0), (0, 0)), (0, 0))
    assert_kernel_matches(((0, 0), (0, 0)), (0, 1))
    assert_kernel_matches(((0, 2), (0, 4)), (1, 2))
    assert_kernel_matches(((1, 2, 3), (2, 4, 7)), (Fraction(1, 2), 1))
    assert_kernel_matches(((Fraction(1, 2),), (Fraction(-1, 3),)), (1, Fraction(-2, 3)))
    # a float or a string is refused, not converted: where a rational
    # system is scaled to integer rows, by rank and determinant, which read
    # integer entries through operator.index (a Fraction too), and by the
    # solve, which takes integer rows and refuses one in its result
    for entry in (0.25, "1/2"):
        with pytest.raises(AttributeError):
            solve_rational(((1, 0), (0, 1)), (entry, 1))
        with pytest.raises(TypeError):
            rank_exact(((1, entry),))
        with pytest.raises(TypeError):
            det_exact(((1, entry), (0, 1)))
        with pytest.raises(TypeError):
            solve_exact(((1, 0, entry), (0, 1, 1)))
    for entry in (Fraction(1, 2), Fraction(2)):
        with pytest.raises(TypeError):
            rank_exact(((1, entry),))
        with pytest.raises(TypeError):
            det_exact(((entry,),))
    assert_same(det_exact(()), 1)
    assert_same(det_exact(((0, -3), (2, 5))), 6)
    with pytest.raises(ValueError):
        det_exact(((1, 2),))
    with pytest.raises(ValueError):
        solve_exact(((1, 2, 1), (2,)))
    # ragged rows are refused, not read at the first row's width
    with pytest.raises(ValueError):
        rank_exact(((1,), (0, 1)))
    with pytest.raises(ValueError):
        rank_exact(((1, 2), (3,)))


def test_solve_exact_returns_lowest_terms_over_a_positive_denominator():
    """Integer systems against the Fraction oracle: a unique solution comes
    back as numerators over one denominator > 0 with no common factor, and
    a rank-deficient or inconsistent system as None."""
    rng = random.Random(33)
    seen = Counter()
    for _ in range(3000):
        n = rng.randint(1, 5)
        kind = rng.choice(("unique", "rank-deficient", "inconsistent"))
        if kind == "unique":
            # a square system, mostly invertible, and combinations of its rows
            mat = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n)]
            rhs = [rng.randint(-9, 9) for _ in range(n)]
            for _ in range(rng.randint(0, 2)):
                c = [rng.randint(-2, 2) for _ in range(n)]
                mat.append(tuple(dot(c, col) for col in zip(*mat[:n])))
                rhs.append(dot(c, rhs[:n]))
            mat, rhs = tuple(mat), tuple(rhs)
        else:
            mat = low_rank(rng, rng.randint(1, 6), n, rng.randint(0, n - 1))
            rhs = tuple(dot(row, [rng.randint(-3, 3) for _ in range(n)]) for row in mat)
            if kind == "inconsistent":
                i = rng.randrange(len(mat))
                mat += (mat[i],)
                rhs += (rhs[i] + rng.choice((-2, -1, 1, 2)),)
        want = solve_oracle(mat, rhs)
        got = solve_exact(augment(mat, rhs))
        if want is None or want[1]:
            assert got is None, (mat, rhs)
            seen[kind if want is None else "rank-deficient"] += 1
            continue
        num, den = got
        assert all(type(v) is int for v in (*num, den))
        assert den > 0 and gcd(den, *num) == 1, got
        assert tuple(Fraction(v, den) for v in num) == want[0], (mat, rhs)
        seen["unique"] += 1
        seen["denominator > 1"] += den > 1
        seen["some numerator < 0"] += any(v < 0 for v in num)
    assert min(seen.values()) >= 300, seen
