"""Tests of the benchmark's own code: seeds, oracles and the traced run.

    python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import lp_oracle  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def m():
    return workloads.load_modules()


@pytest.fixture(scope="module")
def warmed(m, tmp_path_factory):
    """name -> (workload, warm-up results, expected digests, oracle faults)."""
    cache = {}

    def get(name):
        if name not in cache:
            w = workloads.build(name, m, run.DEFAULT_SEED, tmp_path_factory.mktemp(name))
            results = run.run_pass(w)
            expected, faults = w.oracle({it.label: d for it, d, _ in results})
            cache[name] = (w, results, expected, faults)
        return cache[name]

    return get


def _tampered(results, label, change):
    assert label in {it.label for it, _, _ in results}
    return [(it, change(d) if it.label == label else d, t) for it, d, t in results]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(m, name, tmp_path):
    first = workloads.build(name, m, 1, tmp_path / "a").inputs
    again = workloads.build(name, m, 1, tmp_path / "b").inputs
    other = workloads.build(name, m, 2, tmp_path / "c").inputs
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_oracle_accepts_the_program(warmed, name):
    w, results, expected, faults = warmed(name)
    assert faults == []
    found: list[str] = []
    failed = run.check_pass(results, expected, found)
    assert found == []
    assert failed == sum(it.known_fault for it in w.items)


def test_singular_level_fault_is_counted_not_fatal(warmed):
    w, results, expected, _ = warmed("certify")
    (fault,) = [it for it in w.items if it.known_fault]
    assert dict((it.label, d) for it, d, _ in results)[fault.label] == 4  # accepted today
    assert expected[fault.label] == "rejected"


@pytest.mark.parametrize("name, label, change", [
    ("invariant", "n5d9p1", lambda v: (v[0] + 2, v[1])),
    ("invariant", "n4d6p1", lambda v: (v[0], v[1] + 2)),
    ("certify", "verify hexagonxsquare", lambda d: (2 * d[0], d[1])),
    ("certify", "auto cubexsegment", lambda d: d | {Fraction(1, 3)}),
    ("certify", "pentagon lam=5/2", lambda d: 4),
    ("reduce", "reduce s4.c2", lambda d: d[1:]),
    ("corpus", "hf hexagon", lambda d: (d[0], d[1] + 2, d[2])),
    ("corpus", "render hexagon", lambda d: (d[0], [5])),
    ("corpus", "probe simplex2 -1/2,0 1", lambda d: (d[0], False)),
    ("corpus", "certify cp2_tr", lambda d: (1, d[1], False)),
])
def test_oracle_catches_a_wrong_answer(warmed, name, label, change):
    w, results, expected, _ = warmed(name)
    found: list[str] = []
    failed = run.check_pass(_tampered(results, label, change), expected, found)
    assert failed == 1 + sum(it.known_fault for it in w.items)
    assert [f.split(":")[0] for f in found] == [label]


def test_vertex_count_oracle_catches_a_lost_vertex(warmed, monkeypatch, m):
    w, results, _, _ = warmed("certify")
    original = m.polytope.Polytope.vertices
    monkeypatch.setattr(m.polytope.Polytope, "vertices", lambda self: original(self)[1:])
    _, faults = w.oracle({it.label: d for it, d, _ in results})
    assert len(faults) == len(workloads.CERTIFY_PRODUCTS)


def test_closed_form_matches_hf_on_random_polytopes(m):
    import random
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        normals = []
        while len(normals) < n + rng.randint(1, 4):
            nu = workloads.random_normal(rng, n)
            if nu not in normals:
                normals.append(nu)
        p = m.polytope.polytope(n, [(nu, 1) for nu in normals])
        assert m.floer.hf(p) == oracles.closed_form_hf(normals, n)


def test_lp_oracle_agrees_with_pruning_and_catches_errors(m):
    facets = [((1, 0), Fraction(1)), ((0, 1), Fraction(1)), ((-1, -1), Fraction(1)),
              ((1, 1), Fraction(5)), ((1, 0), Fraction(2)), ((-1, 1), Fraction(3))]
    kept = oracles.canonical_facets(m.polytope.prune_redundant(m.polytope.polytope(2, facets)).facets)
    assert len(kept) == 3
    assert oracles.lp_check([("ok", facets, kept)]) == []
    faults = oracles.lp_check([("lost", facets, kept[1:]),
                               ("extra", facets, kept + (((1, 1), Fraction(5)),))])
    assert sorted({f.split(":")[0] for f in faults}) == ["extra", "lost"]


def test_linprog_minimum_agrees_with_lpmin():
    from sympy import Rational, symbols
    from sympy.solvers.simplex import lpmin
    system = [((1, 0, 0), Fraction(1)), ((0, 1, 0), Fraction(2)), ((0, 0, 1), Fraction(1, 2)),
              ((-1, -1, -2), Fraction(3)), ((1, -1, 0), Fraction(3, 2))]
    x = symbols("x0:3")
    constraints = [sum(c * v for c, v in zip(nu, x)) + Rational(a.numerator, a.denominator) >= 0
                   for nu, a in system]
    for objective in ((1, 2, 0), (-1, 0, 1), (0, 1, -1)):
        value, _ = lpmin(sum(c * v for c, v in zip(objective, x)), constraints)
        assert lp_oracle.facet_minimum(system, (objective, Fraction(0))) == Fraction(str(value))
    assert lp_oracle.facet_minimum(system[:3], ((-1, 0, 0), Fraction(0))) is None


def test_svg_polygons():
    svg = '<svg><polygon points="1,2 3,4 5,6" fill="none"/><circle/></svg>'
    assert oracles.svg_polygons(svg) == [3]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_pass_fills_every_mapped_metric(warmed, name, m):
    w = warmed(name)[0]
    tracer = tracing.Tracer()
    originals = {attr: value for attr, value in vars(m.certificate).items()}
    tracer.install()
    try:
        run.run_pass(w, tracer)
    finally:
        tracer.uninstall()
    assert vars(m.certificate) == originals
    values = tracer.per_pass(1)
    mapped = [k for k in values if name in tracing.LAYER_WORKLOADS.get(tracing.layer_of(k), ())]
    assert mapped
    assert [k for k in mapped if values[k] <= 0] == []


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(x["name"], x["unit"]) for x in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert all(tracing.layer_of(name) or name == "trace.overhead_pct" for name, _ in tracing.PER_LAYER)
    e2e = run.end_to_end([(1.0, 0.5, 0.5)] * 20, [(1.0, 1.0)])
    assert [(x["name"], x["unit"]) for x in spec["end_to_end"]] == [(k, u) for k, (_, u) in e2e.items()]
    assert [x["name"] for x in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "corpus"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
