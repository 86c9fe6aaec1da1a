from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from momentcert import corpus
from momentcert.floer import BoundaryOp
from momentcert.lattice import IntMat, dot, identity, transpose, vec_gcd
from momentcert.polytope import Facet, Polytope, _unvalidated, polytope
from momentcert.reduction import AffineReduction

OFFSET_CHOICES = [Fraction(k, 2) for k in range(1, 7)]

CORPUS_LOADERS = (
    corpus.load_corpus_polytope,
    corpus.load_corpus_section,
    corpus.load_corpus_certificate,
)


@pytest.fixture()
def fresh_corpus():
    """Empty the corpus loaders' caches before and after the test, so that
    what a test counts during a load does not depend on the tests before it."""
    for loader in CORPUS_LOADERS:
        loader.cache_clear()
    yield
    for loader in CORPUS_LOADERS:
        loader.cache_clear()


def mat_vec(m, v) -> tuple:
    return tuple(dot(row, v) for row in m)


def mat_mul(a, b) -> tuple:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def translate(p: Polytope, x0) -> Polytope:
    """p shifted by x0 (offsets pick up -<x0, normal>), not validated again:
    the normals, their multiplicities and the facet count are unchanged, and
    the interior moves by x0."""
    return _unvalidated(
        p.dim, tuple(Facet(f.normal, f.offset - dot(x0, f.normal)) for f in p.facets)
    )


def offsets(p: Polytope) -> tuple:
    return tuple(f.offset for f in p.facets)


def interior_contains(p: Polytope, x) -> bool:
    return all(v > 0 for v in p.support_values(x))


def map_point(sec: AffineReduction, y) -> tuple:
    """The ambient point matrix @ y + base of the reduced point y."""
    return tuple(dot(row, y) + b for row, b in zip(sec.matrix, sec.base, strict=True))


def solve_oracle(rows, rhs):
    """Fraction Gauss-Jordan for rows * x = rhs: (particular, kernel_basis)
    with the free variables set to zero, or None when inconsistent.

    It shares no code with lattice.solve_exact, so a test that needs a
    solve checks the package against an independent answer.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs, strict=True)]
    pivot_cols: list[int] = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    particular = [Fraction(0)] * n
    for i, col in enumerate(pivot_cols):
        particular[col] = aug[i][n]
    free_cols = [c for c in range(n) if c not in pivot_cols]
    kernel = []
    for free in free_cols:
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for i, col in enumerate(pivot_cols):
            vec[col] = -aug[i][free]
        kernel.append(tuple(vec))
    return tuple(particular), tuple(kernel)


# The two-matrix Smith form the package used before it kept V under A as
# extra rows: a test oracle for lattice.smith_normal_form, kept as it was
# but for the counts of the branches it takes.
def smith_normal_form(mat, seen=None) -> tuple[IntMat, IntMat]:
    """Return (D, V) with U*mat*V = D in Smith normal form for some U.

    U and V are unimodular, D is diagonal with d_i >= 0 and d_i | d_{i+1}.
    Only V is built; no caller reads U.  The pivot choice (smallest
    absolute value, then lowest position) makes the output deterministic.
    A Counter passed as seen counts the pivots that leave a remainder in
    their column or row, and the rows added to the pivot row because the
    pivot does not divide them.
    """
    seen = Counter() if seen is None else seen
    a = [list(row) for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    v = [list(row) for row in identity(ncols)]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_col(dst, src, q):
        for row in a:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

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
                a[k], a[piv[0]] = a[piv[0]], a[k]
            if piv[1] != k:
                swap_cols(k, piv[1])
            if a[k][k] < 0:
                a[k] = [-x for x in a[k]]
            p = a[k][k]
            dirty = column_left = row_left = False
            for i in range(k + 1, nrows):
                if a[i][k] != 0:
                    if a[i][k] % p != 0:
                        dirty = True
                        column_left = True
                    q = a[i][k] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[k])]
            for j in range(k + 1, ncols):
                if a[k][j] != 0:
                    if a[k][j] % p != 0:
                        dirty = True
                        row_left = True
                    addmul_col(j, k, a[k][j] // p)
            seen["remainder in column"] += column_left
            seen["remainder in row"] += row_left
            if dirty:
                continue
            # row k and column k are clear; enforce divisibility of the rest
            clean = True
            for i in range(k + 1, nrows):
                bad = next((j for j in range(k + 1, ncols) if a[i][j] % p != 0), None)
                if bad is not None:
                    seen["row added"] += 1
                    a[k] = [x + y for x, y in zip(a[k], a[i])]
                    clean = False
                    break
            if clean:
                break
        if k < min(nrows, ncols) and a[k][k] == 0:
            break

    return tuple(tuple(row) for row in a), tuple(tuple(row) for row in v)


def generator(op: BoundaryOp) -> int:
    """The image of the all-plus sign vector, bit-packed; determines the operator."""
    g = 0
    for t in op.translations:
        g ^= 1 << t
    return g


def random_polytope(rng: random.Random, n: int, d: int, even: bool | None = None) -> Polytope:
    """A valid random facet system with the origin interior.

    Normals are random primitive vectors with entries in [-3, 3]; offsets are
    small positive rationals, re-drawn until no (normal, offset) pair repeats.
    even=True/False forces the parity of the facet count.
    """
    d = max(d, n)
    if even is True and d % 2:
        d += 1
    if even is False and d % 2 == 0:
        d += 1
    facets: list[tuple[tuple[int, ...], Fraction]] = []
    seen = set()
    while len(facets) < d:
        vec = tuple(rng.randint(-3, 3) for _ in range(n))
        if all(x == 0 for x in vec):
            continue
        g = vec_gcd(vec)
        normal = tuple(x // g for x in vec)
        offset = rng.choice(OFFSET_CHOICES)
        if (normal, offset) in seen:
            continue
        seen.add((normal, offset))
        facets.append((normal, offset))
    return polytope(n, facets)


def xor_square(g: int) -> int:
    """g * g in the GF(2) group algebra of (Z/2)^n, g bit-packed as by
    generator: the XOR convolution of g with itself."""
    support = [b for b in range(g.bit_length()) if g >> b & 1]
    square = 0
    for s in support:
        for t in support:
            square ^= 1 << (s ^ t)
    return square
