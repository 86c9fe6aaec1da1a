"""Exact redundancy checks with sympy's simplex method.

Reads a JSON list of {"label", "facets", "kept"} on standard input
and prints a JSON list of fault messages.  A facet <nu, x> + a >= 0 is
implied by a system when the minimum of <nu, x> + a over that system is
>= 0; the minimum comes from sympy.solvers.simplex.linprog with each free
variable split as x = u - v, which is exact and much faster than lpmin
on symbolic expressions (the tests compare the two).
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from sympy import Rational
from sympy.solvers.simplex import UnboundedLPError, linprog


def _rational(x: Fraction) -> Rational:
    return Rational(x.numerator, x.denominator)


def facet_minimum(system, facet):
    """min of <nu, x> + a over {x : <mu, x> + b >= 0 for (mu, b) in system};
    None when unbounded below.  The system must be feasible."""
    nu, a = facet
    rows = [[-c for c in mu] + list(mu) for mu, _ in system]
    rhs = [_rational(b) for _, b in system]
    cost = list(nu) + [-c for c in nu]
    try:
        value, _ = linprog(cost, rows, rhs)
    except UnboundedLPError:
        return None
    return Fraction(int(value.p), int(value.q)) + a


def check_case(facets, kept) -> list[str]:
    facets = set(facets)
    kept = list(dict.fromkeys(kept))
    faults = [f"kept facet {f} is not an input facet" for f in kept if f not in facets]
    for f in sorted(facets):
        if f in kept:
            others = [g for g in kept if g != f]
            low = facet_minimum(others, f) if others else None
            if low is not None and low >= 0:
                faults.append(f"kept facet {f} is implied by the others")
        else:
            low = facet_minimum(kept, f)
            if low is None or low < 0:
                faults.append(f"dropped facet {f} is not implied by the kept ones")
    return faults


def _facets(raw):
    return [(tuple(nu), Fraction(a)) for nu, a in raw]


def main() -> int:
    cases = json.load(sys.stdin)
    out = []
    for case in cases:
        for fault in check_case(_facets(case["facets"]), _facets(case["kept"])):
            out.append(f"{case['label']}: {fault}")
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
