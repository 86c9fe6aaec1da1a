"""Exact integer and rational linear algebra on plain tuples.

Vectors are tuples of ints (or Fractions), matrices are tuples of row
tuples.  Everything is arbitrary precision and fully deterministic; no
floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ZeroVectorError

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]
RatVec = tuple[Fraction, ...]


def vec_gcd(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def is_primitive(v) -> bool:
    """True iff the gcd of the entries is 1.  Zero vectors are rejected."""
    if all(x == 0 for x in v):
        raise ZeroVectorError("primitivity is undefined for the zero vector")
    return vec_gcd(v) == 1


def primitive_part(v) -> IntVec:
    """Divide an integer vector by the gcd of its entries."""
    g = vec_gcd(v)
    if g == 0:
        raise ZeroVectorError("cannot normalize the zero vector")
    return tuple(x // g for x in v)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v, strict=True))


def neg(v):
    return tuple(-x for x in v)


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def scale(v, s):
    return tuple(s * x for x in v)


def identity(n: int) -> IntMat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m) -> tuple:
    if not m:
        return ()
    return tuple(zip(*m))


def mat_vec(m, v) -> tuple:
    return tuple(dot(row, v) for row in m)


def mat_mul(a, b) -> tuple:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def smith_normal_form(mat) -> tuple[IntMat, IntMat, IntMat]:
    """Return (U, D, V) with U*mat*V = D in Smith normal form.

    U and V are unimodular, D is diagonal with d_i >= 0 and d_i | d_{i+1}.
    The pivot choice (smallest absolute value, then lowest position) makes
    the output deterministic.
    """
    a = [list(row) for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u = [list(row) for row in identity(nrows)]
    v = [list(row) for row in identity(ncols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        # row dst -= q * row src
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, q):
        for row in a:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    for k in range(min(nrows, ncols)):
        while True:
            # smallest nonzero entry of the trailing block becomes the pivot
            piv = None
            for i in range(k, nrows):
                for j in range(k, ncols):
                    if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                        piv = (i, j)
            if piv is None:
                break
            if piv[0] != k:
                swap_rows(k, piv[0])
            if piv[1] != k:
                swap_cols(k, piv[1])
            if a[k][k] < 0:
                negate_row(k)
            p = a[k][k]
            dirty = False
            for i in range(k + 1, nrows):
                if a[i][k] != 0:
                    if a[i][k] % p != 0:
                        dirty = True
                    addmul_row(i, k, a[i][k] // p)
            for j in range(k + 1, ncols):
                if a[k][j] != 0:
                    if a[k][j] % p != 0:
                        dirty = True
                    addmul_col(j, k, a[k][j] // p)
            if dirty:
                continue
            # row k and column k are clear; enforce divisibility of the rest
            clean = True
            for i in range(k + 1, nrows):
                bad = next((j for j in range(k + 1, ncols) if a[i][j] % p != 0), None)
                if bad is not None:
                    a[k] = [x + y for x, y in zip(a[k], a[i])]
                    u[k] = [x + y for x, y in zip(u[k], u[i])]
                    clean = False
                    break
            if clean:
                break
        if k < min(nrows, ncols) and a[k][k] == 0:
            break

    return (
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in a),
        tuple(tuple(row) for row in v),
    )


def invariant_factors(mat) -> tuple[int, ...]:
    """The diagonal of the Smith normal form, including trailing zeros."""
    _, d, _ = smith_normal_form(mat)
    n = min(len(d), len(d[0]) if d else 0)
    return tuple(d[i][i] for i in range(n))


def is_surjective_onto_lattice(mat) -> bool:
    """Whether v -> mat^T v maps Z^rows onto Z^cols.

    Requires rows >= cols; equivalent to all Smith invariant factors of the
    transpose being 1.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    if nrows < ncols:
        raise ValueError("matrix must have at least as many rows as columns")
    factors = invariant_factors(transpose(mat))
    return len(factors) == ncols and all(f == 1 for f in factors)


def integer_rows(mat) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, and the product of those lcms.

    ints and Fractions are read through numerator and denominator, so no
    Fraction is built; anything else Fraction accepts is converted first.
    """
    rows = []
    scale = 1
    for row in mat:
        try:
            dens = [x.denominator for x in row]
        except AttributeError:
            row = [Fraction(x) for x in row]
            dens = [x.denominator for x in row]
        den = lcm(*dens)
        if den == 1:
            rows.append([x.numerator for x in row])
        else:
            rows.append([x.numerator * (den // d) for x, d in zip(row, dens)])
            scale *= den
    return rows, scale


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Columns are scanned left to right over the first ncols; the pivot is the
    first nonzero entry at or below the current row.  Every other row is
    updated as (p * row - f * pivot_row) // prev, with p the new pivot and
    prev the one before it (Bareiss).  By Sylvester's identity every entry
    is then a minor of the input, so the division is exact, and each pivot
    row ends up d times its row of the reduced row echelon form, where d is
    the last pivot.  Returns (pivot columns, d, number of row swaps).
    """
    m = len(rows)
    pivots: list[int] = []
    prev = 1
    swaps = 0
    for col in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            swaps += 1
        top = rows[r]
        p = top[col]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[col]
            if f:
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                rows[i] = [p * x // prev for x in row]
        pivots.append(col)
        prev = p
    return pivots, prev, swaps


def rank_exact(mat) -> int:
    """Rank over the rationals."""
    rows, _ = integer_rows(mat)
    return len(_eliminate(rows, len(rows[0]) if rows else 0)[0])


def det_exact(mat) -> Fraction:
    """Determinant of a square matrix, exact."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant of a non-square matrix")
    rows, scale = integer_rows(mat)
    pivots, d, swaps = _eliminate(rows, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(-d if swaps % 2 else d, scale)


def solve_exact(rows, rhs):
    """Solve rows * x = rhs exactly.

    Returns (particular, kernel_basis) with free variables set to zero, or
    None when the system is inconsistent.  kernel_basis is a tuple of
    rational vectors spanning the solution space of the homogeneous system.
    """
    n = len(rows[0]) if rows else 0
    aug, _ = integer_rows([(*row, b) for row, b in zip(rows, rhs, strict=True)])
    pivots, d, _ = _eliminate(aug, n)
    if any(row[n] for row in aug[len(pivots):]):
        return None
    particular = [Fraction(0)] * n
    for row, col in zip(aug, pivots):
        particular[col] = Fraction(row[n], d)
    kernel = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for row, col in zip(aug, pivots):
            vec[col] = Fraction(-row[free], d)
        kernel.append(tuple(vec))
    return tuple(particular), tuple(kernel)
