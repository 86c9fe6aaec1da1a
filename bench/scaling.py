"""Reference scaling figures for the exponential kernels (not gated).

    python3 bench/run.py --scaling

Cases: rank_gf2 on random operators at n = 6..12, and prune_redundant and
vertices on random facet systems over an (n, d) grid.  Each case runs in
its own process; one that outlives BUDGET_S seconds is killed and recorded
as "timeout".  Times are given in seconds and in reference-kernel units.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import refkernel

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 2011
BUDGET_S = 10

CASES = (
    [("rank_gf2", n, n + 3) for n in range(6, 13)]
    + [("prune", n, d) for n in (3, 4, 5) for d in (8, 10, 12, 14, 16)]
    + [("vertices", n, d) for n in (3, 4, 5, 6) for d in (8, 12, 16, 20)]
)


def run_case(kind: str, n: int, d: int) -> dict:
    from momentcert import floer
    from momentcert.lattice import vec_gcd
    from momentcert.polytope import polytope, prune_redundant

    rng = random.Random(f"{SEED}-{kind}-{n}-{d}")
    if kind == "rank_gf2":
        op = floer.BoundaryOp(n, tuple(sorted(rng.randrange(1 << n) for _ in range(d))))
        call = lambda: floer.rank_gf2(op)  # noqa: E731
    else:
        # distinct primitive normals with entries in [-3, 3], offsets 1/2 .. 3
        facets, seen = [], set()
        while len(facets) < d:
            nu = tuple(rng.randint(-3, 3) for _ in range(n))
            if vec_gcd(nu) == 1 and nu not in seen:
                seen.add(nu)
                facets.append((nu, Fraction(rng.randint(1, 6), 2)))
        p = polytope(n, facets)
        call = (lambda: prune_redundant(p)) if kind == "prune" else p.vertices
    ref = refkernel.timed_reference()
    start = time.perf_counter()
    call()
    seconds = time.perf_counter() - start
    ref = (ref + refkernel.timed_reference()) / 2
    return {"seconds": seconds, "ref": seconds / ref}


def main() -> int:
    rows = []
    for kind, n, d in CASES:
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), kind, str(n), str(d)],
                capture_output=True, text=True, timeout=BUDGET_S,
            )
            result = json.loads(proc.stdout) if proc.returncode == 0 else {"error": proc.stderr[-300:]}
        except subprocess.TimeoutExpired:
            result = "timeout"
        rows.append({"kernel": kind, "n": n, "d": d, "result": result})
        shown = result if isinstance(result, str) else (
            f"{result['seconds']:.4f} s  {result['ref']:.1f} ref" if "seconds" in result else "error")
        print(f"{kind:9s} n={n:2d} d={d:2d}  {shown}", flush=True)
    out = ROOT / ".bench_out" / "scaling.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"budget_s": BUDGET_S, "cases": rows}, indent=1) + "\n")
    print(f"# written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    print(json.dumps(run_case(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))))
