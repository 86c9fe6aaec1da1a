"""The reference kernel: a fixed piece of exact arithmetic that never calls
momentcert.

Wall-clock time on a shared machine drifts by up to 2x within seconds, for
every kind of work alike.  The benchmark times this kernel right after each
item and reports item costs as multiples of it, which cancels that drift.
The kernel mixes the two kinds of work the program does: Fraction
elimination (polytopes, sections, certificates) and XOR elimination on
multi-word integers (the GF(2) invariant), about 3:1 by time.  When the
machine slows down, XOR loops slow down a few percent more than Fraction
arithmetic; pruning and certification track Fractions alone, the
invariant tracks an even mix, and 3:1 keeps every workload's ratio within
about 3% between the machine's fast and slow phases.
"""

from __future__ import annotations

import time
from fractions import Fraction

_MATRICES = (
    tuple(
        tuple(Fraction((7 * i + 3 * j * j + 1) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(7))
        for i in range(7)
    ),
    tuple(
        tuple(Fraction((5 * i * i + 2 * j + 3) % 13 - 6, 1 + (3 * i + j) % 5) for j in range(7))
        for i in range(7)
    ),
)
_WIDTH = 88
_ROWS = tuple(((0x9E3779B97F4A7C15 * (k + 1)) ** 3) & ((1 << _WIDTH) - 1) for k in range(_WIDTH))

EXPECTED = ((Fraction(7436297, 5184), Fraction(-43316707759, 28800000)), 88)
# the kernel's time on an idle machine of the kind the figures were taken on;
# set-up times are reported at this kernel speed (see run.setup)
NOMINAL_S = 0.0012


def _fraction_det(mat) -> Fraction:
    rows = [list(r) for r in mat]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def _xor_rank(rows) -> int:
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            p = (row & -row).bit_length() - 1
            if p in pivots:
                row ^= pivots[p]
            else:
                pivots[p] = row
                break
    return len(pivots)


def reference_kernel():
    return tuple(_fraction_det(m) for m in _MATRICES), _xor_rank(_ROWS)


def timed_reference() -> float:
    """Seconds one run of the kernel takes; checks its answer as well."""
    t = time.perf_counter()
    out = reference_kernel()
    elapsed = time.perf_counter() - t
    if out != EXPECTED:
        raise RuntimeError(f"reference kernel computed {out}, expected {EXPECTED}")
    return elapsed
