"""Metamorphic checks: a moment polytope is fixed only up to a lattice
automorphism x -> g x + t, with g in GL(n, Z) and t rational, so every
answer must move with it or stay put.

Under x -> g x + t a facet (nu, a) becomes (g^-T nu, a - <g^-T nu, t>),
a vertex v becomes g v + t, and the equidistant center u becomes g u + t
at the same value.  Compactness, the Delzant property, hf and the number
of irredundant facets do not change.  A certificate wrapped in the square
reduction with A = g^-1 and x0 = -g^-1 t proves the same bound at the
mapped marked point.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mat_mul, mat_vec
from momentcert import corpus
from momentcert.certificate import Certificate, Reduction, auto_certify_monotone, verify
from momentcert.floer import hf
from momentcert.lattice import dot, identity, transpose
from momentcert.polytope import equidistant_point, polytope, prune_redundant
from momentcert.reduction import reduce_polytope, section

POLYTOPE_NAMES = tuple(
    name
    for name in (n.removesuffix(".json") for n in corpus.data_names())
    if "facets" in corpus.load_doc(name)
)

CERTIFICATES = [
    *((name, lambda name=name: corpus.load_corpus_certificate(name))
      for name, _ in corpus.CERTIFICATE_CASES),
    *((f"blowup2 lam={lam}", lambda lam=lam: corpus.blowup2_certificate(Fraction(1, 4), lam))
      for lam in corpus.BLOWUP2_OK),
    *((f"pentagon lam={lam}", lambda lam=lam: corpus.pentagon_certificate(lam))
      for lam in corpus.PENTAGON_OK),
]


@st.composite
def motions(draw, n):
    """(g, g^-1, t): g a product of elementary integer column operations on
    the identity, g^-1 built alongside from the inverse row operations, and
    t with entries p/q, |p| <= 3, q <= 3."""
    g = [list(row) for row in identity(n)]
    inverse = [list(row) for row in identity(n)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(("add", "swap", "negate")))
        if op == "negate":
            for row in g:
                row[i] = -row[i]
            inverse[i] = [-x for x in inverse[i]]
        elif op == "swap" and i != j:
            for row in g:
                row[i], row[j] = row[j], row[i]
            inverse[i], inverse[j] = inverse[j], inverse[i]
        elif i != j:
            c = draw(st.sampled_from((-2, -1, 1, 2)))
            for row in g:  # column i += c column j
                row[i] += c * row[j]
            inverse[j] = [x - c * y for x, y in zip(inverse[j], inverse[i])]
    t = tuple(Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))) for _ in range(n))
    g, inverse = tuple(map(tuple, g)), tuple(map(tuple, inverse))
    assert mat_mul(g, inverse) == identity(n)
    return g, inverse, t


def apply(motion, x) -> tuple:
    g, _, t = motion
    return tuple(y + s for y, s in zip(mat_vec(g, x), t))


def moved(p, motion):
    """The image of p under x -> g x + t, facet by facet and validated."""
    _, inverse, t = motion
    facets = []
    for nu, a in p.facets:
        image = mat_vec(transpose(inverse), nu)
        facets.append((image, a - dot(image, t)))
    return polytope(p.dim, facets)


def square_section(motion):
    """The section y -> g^-1 y - g^-1 t, whose preimage of x is g x + t."""
    _, inverse, t = motion
    return section(inverse, [-x for x in mat_vec(inverse, t)])


@pytest.mark.parametrize("name", POLYTOPE_NAMES)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_motion_moves_facets_vertices_and_center(name, data):
    p = corpus.load_corpus_polytope(name)
    motion = data.draw(motions(p.dim))
    image = moved(p, motion)
    assert reduce_polytope(p, square_section(motion)) == prune_redundant(image)
    assert {apply(motion, v.point): v.active for v in p.vertices()} == {
        v.point: v.active for v in image.vertices()
    }
    center = equidistant_point(p)
    if center is None:
        assert equidistant_point(image) is None
    else:
        assert equidistant_point(image) == (apply(motion, center[0]), center[1])


@pytest.mark.parametrize("name", POLYTOPE_NAMES)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_motion_keeps_the_invariants(name, data):
    p = corpus.load_corpus_polytope(name)
    motion = data.draw(motions(p.dim))
    image = moved(p, motion)
    assert image.is_compact() == p.is_compact()
    assert image.is_delzant() == p.is_delzant()
    assert hf(image) == hf(p)
    # the irredundant facets map one to one, so their number stays put
    assert prune_redundant(image) == moved(prune_redundant(p), motion).canonical_form()


@pytest.mark.parametrize("name, build", CERTIFICATES, ids=[name for name, _ in CERTIFICATES])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_certificate_verifies_through_a_square_reduction(name, build, data):
    cert = build()
    claim = verify(cert)
    motion = data.draw(motions(claim.polytope.dim))
    point = apply(motion, claim.marked_point)
    wrapped = Certificate(
        Reduction(cert.root, square_section(motion)), cert.kind,
        marked_point=point, target=moved(claim.polytope, motion),
    )
    again = verify(wrapped)
    assert (again.bound, again.marked_point) == (claim.bound, point)


@pytest.mark.parametrize("name, bound", corpus.MONOTONE_CASES)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_auto_certify_follows_a_motion(name, bound, data):
    p = corpus.load_corpus_polytope(name)
    motion = data.draw(motions(p.dim))
    claim = verify(auto_certify_monotone(moved(p, motion)))
    assert claim.bound == bound == 2**p.dim
    assert claim.marked_point == motion[2]
