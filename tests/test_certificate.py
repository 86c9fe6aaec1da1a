from fractions import Fraction as F

import pytest

import momentcert.polytope as polytope_module
from momentcert.certificate import (
    CLIFFORD_TORUS,
    CP1,
    O_MINUS_ONE,
    TT,
    TR,
    WEIGHTED_PROJECTIVE,
    BaseFact,
    Certificate,
    Product,
    Reduction,
    auto_certify_monotone,
    hf_lower_bound_tr,
    verify,
)
from momentcert.corpus import load_corpus_polytope, pentagon_certificate
from momentcert.documents import certificate_from_doc, certificate_to_doc
from momentcert.errors import (
    BoundNotIntegralError,
    MarkedPointMismatchError,
    ModelMismatchError,
    NotCompactError,
    NotDelzantError,
    NotMonotoneError,
    ReducedPolytopeMismatchError,
    UnsupportedClaimError,
)
from momentcert.polytope import Polytope, polytope
from momentcert.reduction import cp1, cube, o_minus_one, section, simplex, weighted_projective


def hexagon():
    return polytope(
        2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1), ((1, 1), 1), ((-1, -1), 1)]
    )


def blowup1():
    return polytope(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1), ((1, 1), 1)])


def hexagon_tr_certificate():
    seg = cp1()
    return Certificate(
        Reduction(
            Product((BaseFact(CP1, TR, seg), BaseFact(CP1, TR, seg), BaseFact(CP1, TR, seg))),
            section([(1, 0), (0, 1), (1, 1)]),
            target=hexagon(),
        ),
        TR,
        marked_point=(F(0), F(0)),
        target=hexagon(),
    )


# -- leaves ----------------------------------------------------------------------

def test_clifford_leaf_tt():
    claim = verify(Certificate(BaseFact(CLIFFORD_TORUS, TT, simplex(3)), TT))
    assert claim.bound == 8
    assert claim.marked_point == (0, 0, 0)
    assert claim.citations


def test_clifford_leaf_tr_needs_odd_dimension():
    assert verify(Certificate(BaseFact(CLIFFORD_TORUS, TR, simplex(5)), TR)).bound == 8
    with pytest.raises(UnsupportedClaimError):
        verify(Certificate(BaseFact(CLIFFORD_TORUS, TR, simplex(4)), TR))


def test_tr_unsupported_for_weighted_and_o_minus_one():
    with pytest.raises(UnsupportedClaimError):
        verify(
            Certificate(
                BaseFact(WEIGHTED_PROJECTIVE, TR, weighted_projective((1, 1, 2)), weights=(1, 1, 2)),
                TR,
            )
        )
    with pytest.raises(UnsupportedClaimError):
        verify(Certificate(BaseFact(O_MINUS_ONE, TR, o_minus_one()), TR))


def test_leaf_accepts_dilated_translates():
    a, lam = F(1, 4), F(1, 8)
    claim = verify(Certificate(BaseFact(O_MINUS_ONE, TT, o_minus_one(1, 1 + lam, 1 + a)), TT))
    assert claim.bound == 4
    assert claim.marked_point == (-a + lam, -a)


def test_leaf_rejects_wrong_shape():
    with pytest.raises(ModelMismatchError):
        verify(Certificate(BaseFact(CLIFFORD_TORUS, TT, cube(2)), TT))


def test_leaf_with_basis_change():
    # the simplex sheared by [[1,1],[0,1]] on normals; undo it in the leaf
    sheared = polytope(2, [((1, 0), 1), ((1, 1), 1), ((-2, -1), 1)])
    undo = ((1, -1), (0, 1))
    claim = verify(
        Certificate(BaseFact(CLIFFORD_TORUS, TT, sheared, basis_change=undo), TT)
    )
    assert claim.bound == 4
    assert claim.marked_point == (0, 0)
    with pytest.raises(ModelMismatchError):
        verify(Certificate(BaseFact(CLIFFORD_TORUS, TT, sheared), TT))


def test_basis_change_must_be_unimodular():
    with pytest.raises(ModelMismatchError):
        verify(
            Certificate(
                BaseFact(CLIFFORD_TORUS, TT, simplex(2), basis_change=((2, 0), (0, 1))),
                TT,
            )
        )


# -- inner nodes ------------------------------------------------------------------

def test_product_multiplies_bounds_and_concatenates_points():
    a = F(1, 4)
    node = Product(
        (BaseFact(CP1, TT, cp1(1, 1 - 2 * a)), BaseFact(CLIFFORD_TORUS, TT, simplex(2)))
    )
    claim = verify(Certificate(node, TT))
    assert claim.bound == 2 * 4
    assert claim.marked_point == (-a, 0, 0)
    assert any("product" in h.lower() or "Cartesian" in h for h in claim.hypotheses)


def test_product_rejects_mixed_kinds():
    node = Product((BaseFact(CP1, TT, cp1()), BaseFact(CP1, TR, cp1())))
    with pytest.raises(UnsupportedClaimError):
        verify(Certificate(node, TT))


def test_hexagon_tr_certificate():
    claim = verify(hexagon_tr_certificate())
    assert claim.bound == 4
    assert claim.kind == TR
    assert claim.polytope == hexagon().canonical_form()
    assert claim.marked_point == (0, 0)


def test_hexagon_tr_two_routes():
    # the 5-simplex route only yields the trivial bound 2^3 / 2^3 = 1;
    # the product-of-spheres route improves it to the optimal 4
    hexa = hexagon().canonical_form()
    rows = hexa.normals[:5]
    weak = Certificate(
        Reduction(BaseFact(CLIFFORD_TORUS, TR, simplex(5)), section(rows), target=hexa),
        TR,
        target=hexa,
    )
    assert verify(weak).bound == 1
    assert verify(hexagon_tr_certificate()).bound == 4


def test_auto_certified_hexagon_goes_through_cp5():
    cert = auto_certify_monotone(hexagon())
    leaf = cert.root.child
    assert leaf.weights == (1,) * 6
    assert leaf.instance == simplex(5)
    assert verify(cert).bound == 4


def test_cp2n_tr_certificates():
    # odd-dimensional Clifford fact reduced once: 2^(n+1) / 2
    cert = Certificate(
        Reduction(
            BaseFact(CLIFFORD_TORUS, TR, simplex(5)),
            section([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)]),
            target=simplex(4),
        ),
        TR,
        target=simplex(4),
    )
    assert verify(cert).bound == 4
    cert2 = Certificate(
        Reduction(BaseFact(CLIFFORD_TORUS, TR, simplex(3)), section([(1, 0), (0, 1), (-1, -1)])),
        TR,
    )
    assert verify(cert2).bound == 2


def test_reduction_requires_exact_bound_division():
    # dropping four dimensions from a bound of 8 cannot be divided out
    cert = Certificate(
        Reduction(
            BaseFact(CLIFFORD_TORUS, TR, simplex(5)),
            section([(1,), (0,), (0,), (0,), (-1,)]),
        ),
        TR,
    )
    with pytest.raises(BoundNotIntegralError):
        verify(cert)


def test_reduction_marked_point_must_lie_on_slice():
    # base point shifts the slice off the cube's center fiber
    cert = Certificate(
        Reduction(
            Product((BaseFact(CP1, TT, cp1()), BaseFact(CP1, TT, cp1()), BaseFact(CP1, TT, cp1()))),
            section([(1, 0), (0, 1), (1, 1)], base=(0, 0, F(1, 2))),
        ),
        TT,
    )
    with pytest.raises(MarkedPointMismatchError):
        verify(cert)


def test_reduction_target_mismatch():
    cert = Certificate(
        Reduction(
            BaseFact(CLIFFORD_TORUS, TR, simplex(3)),
            section([(1, 0), (0, 1), (-1, -1)]),
            target=cube(2),
        ),
        TR,
    )
    with pytest.raises(ReducedPolytopeMismatchError):
        verify(cert)


@pytest.mark.parametrize(
    "lam, nu, other",
    [
        # weighted-projective slanted facet meets the O(-1) facet
        (F(1), (-1, -2, 0, 0, 0), (0, 0, 0, 1, 0)),
        # sphere facet meets the other O(-1) facet
        (F(2), (0, 0, -1, 0, 0), (0, 0, 0, 0, 1)),
    ],
)
def test_reduction_rejects_singular_level_in_pentagon_family(lam, nu, other):
    # at the family's endpoints two ambient facets cut out one reduced facet,
    # so the quotiented subtorus has a fixed circle and the level is singular
    cert = pentagon_certificate(lam)
    with pytest.raises(ReducedPolytopeMismatchError, match="singular level") as info:
        verify(cert)
    message = str(info.value)
    assert str(nu) in message and str(other) in message
    assert str(tuple(a - b for a, b in zip(nu, other))) in message
    # the check does not depend on a declared target
    bare = Certificate(Reduction(cert.root.child, cert.root.section), TT)
    with pytest.raises(ReducedPolytopeMismatchError, match="singular level"):
        verify(bare)


def test_declared_claim_checks():
    cert = hexagon_tr_certificate()
    bad_kind = Certificate(cert.root, TT, cert.marked_point, cert.target)
    with pytest.raises(UnsupportedClaimError):
        verify(bad_kind)
    bad_point = Certificate(cert.root, TR, (F(1), F(0)), cert.target)
    with pytest.raises(MarkedPointMismatchError):
        verify(bad_point)
    bad_target = Certificate(cert.root, TR, cert.marked_point, simplex(2))
    with pytest.raises(ReducedPolytopeMismatchError):
        verify(bad_target)


# -- determinism and round trips -----------------------------------------------------

def test_verification_is_deterministic():
    claim1 = verify(hexagon_tr_certificate())
    claim2 = verify(hexagon_tr_certificate())
    assert claim1 == claim2


def test_serialized_certificate_reverifies_identically():
    cert = hexagon_tr_certificate()
    doc = certificate_to_doc(cert)
    parsed = certificate_from_doc(doc)
    assert verify(parsed) == verify(cert)


# -- automatic certification ----------------------------------------------------------

def test_auto_certify_blowup_goes_through_wp1112():
    cert = auto_certify_monotone(blowup1())
    leaf = cert.root.child
    assert leaf.kind == WEIGHTED_PROJECTIVE
    assert tuple(sorted(leaf.weights)) == (1, 1, 1, 2)
    claim = verify(cert)
    assert claim.bound == 4
    assert claim.marked_point == (0, 0)


def test_auto_certify_simplex_uses_trivial_stage():
    cert = auto_certify_monotone(simplex(2))
    assert verify(cert).bound == 4
    assert cert.root.section.ambient_dim == 2


def test_auto_certify_bounds():
    for p, expected in (
        (cp1(), 2),
        (simplex(3), 8),
        (cube(2), 4),
        (cube(3), 8),
        (hexagon(), 4),
    ):
        assert verify(auto_certify_monotone(p)).bound == expected


def test_auto_certify_respects_dilation():
    assert verify(auto_certify_monotone(simplex(2, 3))).bound == 4


def test_auto_certify_in_random_coordinates():
    # monotone, compact and Delzant survive unimodular coordinate changes,
    # so automatic certification must still deliver 2^n
    import random

    from momentcert.lattice import mat_mul, mat_vec
    from momentcert.polytope import Facet, Polytope

    rng = random.Random(97)
    for base in (simplex(2), cube(2), hexagon(), blowup1(), simplex(3)):
        for _ in range(4):
            n = base.dim
            change = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(6):
                i, j = rng.randrange(n), rng.randrange(n)
                if i == j:
                    continue
                factor = rng.choice((-2, -1, 1, 2))
                change[i] = [a + factor * b for a, b in zip(change[i], change[j])]
            moved = Polytope(
                n,
                tuple(Facet(mat_vec(change, f.normal), f.offset) for f in base.facets),
            )
            assert moved.is_delzant() and moved.is_compact()
            claim = verify(auto_certify_monotone(moved))
            assert claim.bound == 2**n


def test_auto_certify_rejects_non_monotone():
    a = F(1, 4)
    p_alpha = polytope(
        2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1), ((1, 1), 1 + a), ((0, -1), 1 - 2 * a)]
    )
    with pytest.raises(NotMonotoneError):
        auto_certify_monotone(p_alpha)


@pytest.mark.parametrize("name, enumerations, compactness", [
    ("cp2_blowup1", 2, 1),  # non-zero normal sum: is_delzant, then one vertex cone scan
    ("hexagon", 1, 1),  # zero normal sum: is_delzant only
])
def test_auto_certify_validates_once(monkeypatch, name, enumerations, compactness):
    calls = {"vertices": 0, "is_compact": 0}
    for method in calls:
        original = getattr(Polytope, method)

        def counted(self, _original=original, _method=method):
            calls[_method] += 1
            return _original(self)

        monkeypatch.setattr(Polytope, method, counted)
    auto_certify_monotone(load_corpus_polytope(name))
    assert calls["vertices"] <= enumerations
    assert calls["is_compact"] == compactness


def test_auto_certify_validates_a_translate_once(monkeypatch):
    p = cube(2, 2).translate((3, 0))  # offsets <= 0, so validation runs feasible
    calls = []
    original = polytope_module.feasible

    def counted(constraints, nvars):
        calls.append(len(constraints))
        return original(constraints, nvars)

    monkeypatch.setattr(polytope_module, "feasible", counted)
    with pytest.raises(NotMonotoneError):
        auto_certify_monotone(p)
    assert len(calls) == 1


@pytest.mark.parametrize("p, error", [
    (o_minus_one(), NotCompactError),
    (o_minus_one(1, 2, 3), NotCompactError),  # also not monotone: compactness is checked first
    (weighted_projective((1, 1, 2)), NotDelzantError),
    (polytope(2, [((1, 0), 1), ((0, 1), 1), ((-1, -2), 2)]), NotDelzantError),  # also not monotone
    (cube(2, 2).translate((1, 0)), NotMonotoneError),
])
def test_auto_certify_rejections_keep_their_order(p, error):
    with pytest.raises(error):
        auto_certify_monotone(p)


# -- invariant read as a TR bound -----------------------------------------------------

def test_hf_lower_bound_tr():
    bound, caveat = hf_lower_bound_tr(hexagon())
    assert bound == 4 and caveat
    assert hf_lower_bound_tr(simplex(2))[0] == 2
    assert hf_lower_bound_tr(cp1())[0] == 2
