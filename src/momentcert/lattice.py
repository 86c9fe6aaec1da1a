"""Exact integer and rational linear algebra on plain tuples.

Vectors are tuples of ints (or Fractions), matrices are tuples of row
tuples.  Everything is arbitrary precision and fully deterministic; no
floating point anywhere.  Rank, determinant and solves run on
integer rows, through one forward Bareiss elimination; a solve takes an
augmented system [A | b] and returns a rational point as integer
numerators over one denominator, and callers that hand out the point
build its Fractions once (as_fractions).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index, mul

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]
RatVec = tuple[Fraction, ...]


def vec_gcd(v) -> int:
    return gcd(*v)


def is_primitive(v) -> bool:
    """True iff the gcd of the entries is 1, so the zero vector is not."""
    return vec_gcd(v) == 1


def dot(u, v):
    if len(u) != len(v):
        raise ValueError(f"dot of vectors of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


def neg(v):
    return tuple(-x for x in v)


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def as_fractions(num, den: int) -> RatVec:
    """The point num / den, one Fraction per coordinate."""
    return tuple(Fraction(x, den) for x in num)


def format_vec(v) -> str:
    """v as a point, e.g. (1/2, 0): str writes a Fraction as p/q, or p if integral."""
    return "(" + ", ".join(str(x) for x in v) + ")"


def identity(n: int) -> IntMat:
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def transpose(m) -> tuple:
    return tuple(zip(*m))


def smith_normal_form(mat) -> tuple[IntMat, IntMat]:
    """Return (D, V) with U*mat*V = D in Smith normal form for some U.

    U and V are unimodular, D is diagonal with d_i >= 0 and d_i | d_{i+1}.
    Only V is built, as rows under mat's, so one loop moves a column of
    both.  The pivot choice (smallest absolute value, then lowest position)
    makes the output deterministic.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    a = [list(row) for row in mat] + [list(row) for row in identity(ncols)]
    for k in range(min(nrows, ncols)):
        while True:
            # smallest nonzero entry of the trailing block becomes the pivot
            entries = [(abs(a[i][j]), i, j) for i in range(k, nrows)
                       for j in range(k, ncols) if a[i][j]]
            if not entries:
                break
            _, pi, pj = min(entries)
            a[k], a[pi] = a[pi], a[k]
            if pj != k:
                for row in a:
                    row[k], row[pj] = row[pj], row[k]
            if a[k][k] < 0:
                a[k] = [-x for x in a[k]]
            p = a[k][k]
            # leave only remainders mod p in column k and in row k
            for i in range(k + 1, nrows):
                if q := a[i][k] // p:
                    a[i] = [x - q * y for x, y in zip(a[i], a[k])]
            for j in range(k + 1, ncols):
                if q := a[k][j] // p:
                    for row in a:
                        row[j] -= q * row[k]
            if any(a[i][k] for i in range(k + 1, nrows)) or any(a[k][k + 1:]):
                continue
            # row k and column k are clear; enforce divisibility of the rest
            bad = next((i for i in range(k + 1, nrows)
                        if any(x % p for x in a[i][k + 1:])), None)
            if bad is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[bad])]
    return tuple(tuple(row) for row in a[:nrows]), tuple(tuple(row) for row in a[nrows:])


def integer_rows(mat) -> list[list[int]]:
    """Each row times the lcm of its denominators.

    Entries are ints or Fractions, read through numerator and denominator,
    so no Fraction is built.
    """
    rows = []
    for row in mat:
        dens = [x.denominator for x in row]
        den = lcm(*dens)
        if den == 1:
            rows.append([x.numerator for x in row])
        else:
            rows.append([x.numerator * (den // d) for x, d in zip(row, dens)])
    return rows


def _eliminate(rows: list, ncols: int) -> tuple[list[int], int, int]:
    """Forward fraction-free (Bareiss) elimination of integer rows, in place.

    Columns are scanned left to right over the first ncols; the pivot is the
    first nonzero entry at or below the current row.  Only the rows below
    the pivot are updated, as (p * row - f * pivot_row) // prev, with p the
    new pivot and prev the one before it.  By Sylvester's identity every
    entry is then a minor of the input, so the division is exact, and the
    last pivot is the minor on the pivot rows and columns.  Rows are
    replaced, never changed, so the input's rows may be tuples.  Returns
    (pivot columns, last pivot, number of row swaps).
    """
    m = len(rows)
    pivots: list[int] = []
    prev = 1
    swaps = 0
    for col in range(ncols):
        r = len(pivots)
        piv = r
        while piv < m and not rows[piv][col]:
            piv += 1
        if piv == m:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            swaps += 1
        top = rows[r]
        p = top[col]
        for i in range(r + 1, m):
            row = rows[i]
            f = row[col]
            if f:
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                rows[i] = [p * x // prev for x in row]
        pivots.append(col)
        prev = p
    return pivots, prev, swaps


def rank_exact(mat) -> int:
    """Rank of an integer matrix; entries are read through operator.index."""
    rows = [[*map(index, row)] for row in mat]
    if len(set(map(len, rows))) > 1:
        raise ValueError("rank of rows of different lengths")
    return len(_eliminate(rows, len(rows[0]) if rows else 0)[0])


def det_exact(mat) -> int:
    """Determinant of a square integer matrix; entries are read through
    operator.index.  The last Bareiss pivot is the determinant of the
    matrix with its rows swapped as the elimination swapped them."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant of a non-square matrix")
    rows = [[*map(index, row)] for row in mat]
    pivots, d, swaps = _eliminate(rows, n)
    if len(pivots) < n:
        return 0
    return -d if swaps % 2 else d


def solve_exact(system) -> tuple[IntVec, int] | None:
    """The unique x with A x = b, for an augmented integer system [A | b]
    (one row [*a_i, b_i] per equation), as (numerators, denominator) in
    lowest terms with denominator > 0; None when the system is
    inconsistent or has more than one solution.

    After forward elimination the first n rows are an upper triangular U
    with right-hand side c, where n is the number of unknowns, and the
    last pivot d is det(A') for A' the first n rows of A as the
    elimination ordered them.  A x = b has a unique solution exactly when
    there are n pivots and every later row's right-hand side is 0, and
    then A' x = b' alone fixes x.  By Cramer's rule x_i = det(A'_i) / d,
    with A'_i the matrix A' with column i replaced by b', so y = d * x is
    an integer vector.  U y = d * c, so back-substitution reads
    U_ii * y_i = d * c_i - sum_{j > i} U_ij * y_j, whose right side is an
    integer and a multiple of U_ii: each division is exact.
    """
    rows = list(system)
    if len(set(map(len, rows))) > 1:
        raise ValueError("augmented system with rows of different lengths")
    n = len(rows[0]) - 1 if rows else 0
    pivots, d, _ = _eliminate(rows, n)
    if len(pivots) < n:
        return None
    for row in rows[n:]:
        if row[n]:
            return None
    # y holds 0 from i on, so the sum takes only the solved y_j, j > i
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        y[i] = (d * row[n] - sum(map(mul, row, y))) // row[i]
    g = gcd(d, *y) if d > 0 else -gcd(d, *y)
    return tuple(x // g for x in y), d // g
