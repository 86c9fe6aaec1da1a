"""Acceptance suite: every release criterion, pinned exactly.

Each criterion prints its own pass line (visible with pytest -s / on
failure); all values are exact integers or rationals, tolerance zero.

Criterion 8 pins the sharp intervals: each family verifies strictly
inside its interval and is rejected at and beyond the endpoints.  At the
two-point blow-up boundary lam = 3*alpha/2 the pruned reduction still
equals the target polytope, but two ambient facets cut out the same
reduced facet, so the quotiented subtorus does not act freely and the
level is singular; verification rejects that reduction step.
"""

import random
import time
from fractions import Fraction as F

import pytest

from conftest import generator, random_polytope, xor_square
from momentcert.certificate import auto_certify_monotone, verify
from momentcert.corpus import (
    MONOTONE_CASES,
    blowup2_certificate,
    load_corpus_certificate,
    load_corpus_polytope,
    pentagon_certificate,
)
from momentcert.errors import ReducedPolytopeMismatchError
from momentcert.floer import BoundaryOp, boundary_op, hf, hf_even, rank_gf2
from momentcert.polytope import polytope, product
from momentcert.probes import is_displaceable_by_probe, probe_scan
from momentcert.reduction import (
    cp1,
    cube,
    monotone_weights,
    o_minus_one,
    reduce_polytope,
    section,
    simplex,
    weighted_projective,
)


def report(criterion: str):
    print(f"acceptance {criterion}: PASS")


def hexagon():
    return polytope(
        2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1), ((1, 1), 1), ((-1, -1), 1)]
    )


def test_criterion_01_invariant_values():
    assert hf(cp1()) == 2
    squared = product(simplex(2), simplex(2))
    rank, nullity = rank_gf2(boundary_op(squared))
    assert (nullity, rank) == (10, 6)
    assert hf_even(squared) == 4
    assert hf(simplex(2)) == 2
    assert hf(cube(2)) == 4
    assert hf(cube(3)) == 8
    assert hf(hexagon()) == 4
    report("1 invariant values")


def test_criterion_02_parity_law():
    rng = random.Random(20260809)
    for _ in range(200):
        n = rng.randint(1, 5)
        p = random_polytope(rng, n, rng.randint(n, 10))
        squared = xor_square(generator(boundary_op(p)))
        assert squared == (0 if p.d % 2 == 0 else 1)
    report("2 parity law (200 random polytopes)")


def test_criterion_03_multiplicativity():
    rng = random.Random(60613)
    for _ in range(50):
        n1 = rng.randint(1, 4)
        n2 = rng.randint(1, max(1, min(4, 8 - n1)))
        p1 = random_polytope(rng, n1, rng.randint(n1, 8), even=True)
        p2 = random_polytope(rng, n2, rng.randint(n2, 8), even=True)
        assert hf_even(product(p1, p2)) == hf_even(p1) * hf_even(p2)
    report("3 multiplicativity (50 random even pairs)")


def test_criterion_04_packed_rank_equals_dense_oracle():
    from test_floer import dense_rank

    rng = random.Random(271828)
    for _ in range(100):
        n = rng.randint(1, 6)
        d = rng.randint(1, 10)
        op = BoundaryOp(n, tuple(sorted(rng.randrange(1 << n) for _ in range(d))))
        assert rank_gf2(op) == dense_rank(op)
    report("4 bit-packed rank vs dense oracle (100 random operators)")


def test_criterion_05_reduction_golden_cases():
    # cube -> hexagon
    assert reduce_polytope(cube(3), section([(1, 0), (0, 1), (1, 1)])) == hexagon().canonical_form()
    # CP^3 -> CP^2
    assert reduce_polytope(simplex(3), section([(1, 0), (0, 1), (-1, -1)])) == simplex(2).canonical_form()
    # CP(1,1,1,2) -> one-point blow-up
    blowup = polytope(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1), ((1, 1), 1)])
    assert (
        reduce_polytope(weighted_projective((1, 1, 1, 2)), section([(1, 0), (0, 1), (-1, -1)]))
        == blowup.canonical_form()
    )
    # CP(1,1,2) x sphere -> Hirzebruch surface of degree 2
    h2 = polytope(2, [((1, 0), 2), ((0, 1), 1), ((0, -1), 1), ((-1, -2), 2)])
    assert (
        reduce_polytope(product(weighted_projective((1, 1, 2), 2), cp1()), section([(1, 0), (0, 1), (0, 1)]))
        == h2.canonical_form()
    )
    # two-point blow-up family at alpha = lam = 1/4
    a = lam = F(1, 4)
    blowup2_ambient = product(
        product(o_minus_one(1, 1 + lam, 1 + a), cp1(1, 1 - 2 * a)),
        cp1(1 + 4 * a - 2 * lam, 1),
    )
    p_alpha = polytope(
        2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1), ((1, 1), 1 + a), ((0, -1), 1 - 2 * a)]
    )
    assert (
        reduce_polytope(blowup2_ambient, section([(1, 0), (0, 1), (0, 1), (1, 1)]))
        == p_alpha.canonical_form()
    )
    # non-Fano pentagon at lam = 3/2
    lam = F(3, 2)
    wp = polytope(2, [((1, 0), 1), ((0, 1), 1 + lam), ((-1, -2), 1 + 2 * lam)])
    pentagon_ambient = product(product(wp, cp1()), o_minus_one(3, 3 - lam, 3))
    pentagon = polytope(
        2, [((1, 0), 1), ((0, 1), 1), ((0, -1), 1), ((-1, -3), 3), ((-1, -2), 3)]
    )
    assert (
        reduce_polytope(pentagon_ambient, section([(1, 0), (0, 1), (0, 1), (-1, -2), (0, -1)]))
        == pentagon.canonical_form()
    )
    report("5 reduction golden cases (6 constructions)")


def test_criterion_06_weight_identity():
    blowup = polytope(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1), ((1, 1), 1)])
    wv = monotone_weights(blowup)
    canon = blowup.canonical_form()
    # canonical order is (-1,-1), (0,1), (1,0), (1,1): weights 2,1,1 and pivot (1,1)
    assert canon.normals == ((-1, -1), (0, 1), (1, 0), (1, 1))
    assert wv.weights == (2, 1, 1, 1)
    assert canon.normals[wv.pivot] == (1, 1)
    balance = tuple(
        sum(m * nu[i] for m, nu in zip(wv.weights, canon.normals)) for i in range(2)
    )
    assert balance == (0, 0)
    report("6 weight identity for the one-point blow-up")


def test_criterion_07_certificate_bounds():
    assert verify(load_corpus_certificate("hexagon_tr")).bound == 4
    assert verify(load_corpus_certificate("cp4_tr")).bound == 4
    assert verify(load_corpus_certificate("cp2_blowup2_tt")).bound == 4
    for name, expected in MONOTONE_CASES:
        claim = verify(auto_certify_monotone(load_corpus_polytope(name)))
        assert claim.bound == expected == 2 ** claim.polytope.dim
    report("7 certificate bounds")


@pytest.mark.parametrize("lam", [F(1, 8), F(1, 4), F(5, 16)])
def test_criterion_08_blowup2_family_verifies(lam):
    claim = verify(blowup2_certificate(F(1, 4), lam))
    assert claim.bound == 4
    assert claim.marked_point == (lam - F(1, 4), F(-1, 4))
    report(f"8 blow-up family verifies at lam={lam}")


@pytest.mark.parametrize("lam", [F(3, 8), F(1, 2)])
def test_criterion_08_blowup2_family_rejects(lam):
    # NOTE lam = 3/8 is the boundary: a singular level, see the module docstring
    with pytest.raises(ReducedPolytopeMismatchError):
        verify(blowup2_certificate(F(1, 4), lam))
    report(f"8 blow-up family rejects lam={lam}")


@pytest.mark.parametrize("lam", [F(5, 4), F(3, 2), F(7, 4)])
def test_criterion_08_pentagon_family_verifies(lam):
    claim = verify(pentagon_certificate(lam))
    assert claim.bound == 4
    assert claim.marked_point == (lam, 0)
    report(f"8 pentagon family verifies at lam={lam}")


def test_criterion_08_pentagon_family_rejects():
    with pytest.raises(ReducedPolytopeMismatchError):
        verify(pentagon_certificate(F(5, 2)))
    report("8 pentagon family rejects lam=5/2")


def test_criterion_09_probe_consistency():
    start = time.monotonic()
    assert probe_scan(simplex(2), (F(0), F(0)), 3) is None
    assert probe_scan(hexagon().canonical_form(), (F(0), F(0)), 3) is None
    pentagon = load_corpus_polytope("nonfano_pentagon").canonical_form()
    for lam in (F(5, 4), F(3, 2), F(7, 4)):
        assert probe_scan(pentagon, (lam, F(0)), 3) is None
    found = probe_scan(simplex(2), (F(-1, 2), F(0)), 1)
    assert found is not None
    assert is_displaceable_by_probe(simplex(2), (F(-1, 2), F(0)), found)
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report(f"9 probe consistency ({elapsed:.2f}s)")


def test_criterion_10_verifier_soundness():
    # axiomatized leaves carry citations; claims survive a serialize/parse trip
    from momentcert.documents import certificate_from_doc, certificate_to_doc

    marked = {
        "hexagon_tr": (F(0), F(0)),
        "cp2_blowup2_tt": (F(0), F(-1, 4)),
        "nonfano_pentagon_tt": (F(3, 2), F(0)),
        "hirzebruch2_tt": (F(0), F(0)),
    }
    for name, point in marked.items():
        cert = load_corpus_certificate(name)
        claim = verify(cert)
        assert claim.citations
        assert claim.marked_point == point
        again = verify(certificate_from_doc(certificate_to_doc(cert)))
        assert again == claim
        # positive and negative tooling agree: certified fibers resist probes
        if claim.polytope.dim == 2:
            assert probe_scan(claim.polytope, claim.marked_point, 2) is None
    report("10 verifier soundness in place of out-of-scope geometry")
