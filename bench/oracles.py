"""Checks made apart from momentcert: they import nothing from it.

- the GF(2) invariant from its closed form, with a dense elimination;
- pinned vertex counts of the bundled polytopes;
- the SVG polygon of a rendered polytope;
- redundancy of pruned facet lists, by exact linear programs in sympy,
  run in a child process (see lp_oracle.py) so that sympy's import time
  and memory stay out of the measured process.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

LP_ORACLE = Path(__file__).resolve().parent / "lp_oracle.py"

# vertex counts of the bundled polytopes, by hand: products multiply the
# factors' counts (cp2_blowup2_ambient = wedge x segment x segment,
# nonfano_pentagon_ambient = CP(1,1,2) x segment x wedge)
VERTEX_COUNTS = {
    "cp2_blowup1": 4,
    "cp2_blowup2_alpha": 5,
    "cp2_blowup2_ambient": 8,
    "cube": 8,
    "hexagon": 6,
    "hirzebruch2": 4,
    "hirzebruch2_ambient": 6,
    "nonfano_pentagon": 5,
    "nonfano_pentagon_ambient": 12,
    "o_minus_one": 2,
    "segment": 2,
    "simplex2": 3,
    "simplex3": 4,
    "simplex4": 5,
    "simplex5": 6,
    "square": 4,
    "wp1112": 4,
    "wp112": 3,
}


def dense_rank_gf2(rows: list[list[int]]) -> int:
    """Rank over GF(2) of a 0/1 matrix, by plain row reduction."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def closed_form_hf(normals, dim: int) -> int:
    """hf = 2^n - 2 rank(M), M multiplication by m = g + (|g| mod 2) in the
    group algebra of (Z/2)^n, g the sum of the normals' parity classes."""
    g = [0] * (1 << dim)
    for nu in normals:
        g[sum(1 << i for i, c in enumerate(nu) if c % 2)] ^= 1
    g[0] ^= len(normals) % 2
    size = 1 << dim
    matrix = [[g[s ^ t] for t in range(size)] for s in range(size)]
    return size - 2 * dense_rank_gf2(matrix)


def canonical_facets(pairs) -> tuple:
    """Sorted (normal, offset) pairs with exact offsets, duplicates merged."""
    return tuple(sorted({(tuple(int(c) for c in nu), Fraction(a)) for nu, a in pairs}))


def facets_of_doc(doc) -> tuple:
    return canonical_facets((f["normal"], str(f["offset"])) for f in doc["facets"])


def svg_polygons(text: str) -> list[int]:
    """Point counts of each <polygon> in an SVG document."""
    return [len(m.split()) for m in re.findall(r'<polygon points="([^"]*)"', text)]


def support_values(facets, point) -> frozenset:
    return frozenset(sum(Fraction(c) * x for c, x in zip(nu, point)) + a for nu, a in facets)


def lp_check(cases) -> list[str]:
    """Check pruned facet lists with exact LPs; returns one message per fault.

    cases: (label, input facets, kept facets).  A facet absent from
    the kept list must be implied by it, and no kept facet may be implied
    by the other kept ones.
    """
    payload = [
        {
            "label": label,
            "facets": [[list(nu), str(a)] for nu, a in facets],
            "kept": [[list(nu), str(a)] for nu, a in kept],
        }
        for label, facets, kept in cases
    ]
    proc = subprocess.run(
        [sys.executable, str(LP_ORACLE)],
        input=json.dumps(payload),
        capture_output=True,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"LP oracle failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)
