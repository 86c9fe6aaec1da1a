import random
from fractions import Fraction as F
from math import gcd
from types import ModuleType

import pytest

import momentcert.polytope as polytope_module
from conftest import random_polytope
from momentcert.errors import EmptyInteriorError, PolytopeError
from momentcert.polytope import (
    Polytope,
    equidistant_point,
    feasible,
    match_dilate_translate,
    polytope,
    product,
    prune_redundant,
)
from momentcert.reduction import cp1, cube, o_minus_one, simplex, weighted_projective


def hexagon():
    return polytope(
        2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1), ((1, 1), 1), ((-1, -1), 1)]
    )


def blowup2_alpha(a=F(1, 4)):
    return polytope(
        2,
        [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1), ((1, 1), 1 + a), ((0, -1), 1 - 2 * a)],
    )


# -- validation ---------------------------------------------------------------

def test_rejects_non_primitive_normal():
    with pytest.raises(PolytopeError):
        polytope(2, [((2, 4), 1), ((0, 1), 1)])


def test_rejects_duplicate_facet():
    with pytest.raises(PolytopeError):
        polytope(1, [((1,), 1), ((1,), 1)])


def test_rejects_empty_interior():
    with pytest.raises(EmptyInteriorError):
        polytope(1, [((1,), -1), ((-1,), 0)])


def test_rejects_float_offset():
    with pytest.raises(PolytopeError):
        polytope(1, [((1,), 0.5), ((-1,), 1)])


def test_rejects_too_few_facets():
    with pytest.raises(PolytopeError):
        polytope(2, [((1, 0), 1)])


# -- product ------------------------------------------------------------------

def test_product_square():
    sq = product(cp1(), cp1())
    assert sq.normals == ((1, 0), (-1, 0), (0, 1), (0, -1))
    assert all(a == 1 for a in sq.offsets)


def test_product_simplex2_squared():
    p = product(simplex(2), simplex(2))
    assert p.normals == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (-1, -1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (0, 0, -1, -1),
    )


def test_product_with_point_is_identity():
    point = Polytope(0, ())
    p = simplex(2)
    assert product(p, point) == p
    assert product(point, p) == p


def test_product_parity_and_delzant():
    cases = [simplex(2), cube(2), cube(3), hexagon(), o_minus_one()]
    for p1 in cases:
        for p2 in cases:
            pr = product(p1, p2)
            assert pr.is_even() == ((p1.d + p2.d) % 2 == 0)
            assert pr.is_delzant() == (p1.is_delzant() and p2.is_delzant())
    orb = weighted_projective((1, 1, 2))
    assert not product(orb, cp1()).is_delzant()


# -- vertices -----------------------------------------------------------------

def test_simplex2_vertices():
    points = [v.point for v in simplex(2).vertices()]
    assert points == [(-1, -1), (-1, 2), (2, -1)]


def test_square_vertices():
    points = {v.point for v in cube(2).vertices()}
    assert points == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_o_minus_one_vertices():
    points = [v.point for v in o_minus_one().vertices()]
    assert points == [(-1, 0), (0, -1)]


def test_delzant_vertices_have_dim_active_facets():
    for p in (simplex(3), cube(3), hexagon(), o_minus_one()):
        assert p.is_delzant()
        for v in p.vertices():
            assert len(v.active) == p.dim


# -- predicates ---------------------------------------------------------------

def test_delzant_examples():
    assert simplex(4).is_delzant()
    assert not weighted_projective((1, 1, 2)).is_delzant()
    assert hexagon().is_delzant()


def test_flag_examples():
    hexa = hexagon()
    assert hexa.is_even() and hexa.is_symmetric() and hexa.is_monotone() == 1
    s2 = simplex(2)
    assert not s2.is_even() and not s2.is_symmetric() and s2.is_monotone() == 1
    assert blowup2_alpha().is_monotone() is None


def test_compactness():
    assert simplex(3).is_compact()
    assert cube(2).is_compact()
    assert not o_minus_one().is_compact()
    # a strip: bounded in x1 only
    strip = polytope(2, [((1, 0), 1), ((-1, 0), 1)])
    assert not strip.is_compact()


# -- feasibility ---------------------------------------------------------------

def _fraction_normalize(coeffs, const, strict):
    denom = 1
    for x in (*coeffs, const):
        denom = denom * F(x).denominator // gcd(denom, F(x).denominator)
    ic = tuple(int(F(x) * denom) for x in coeffs)
    ib = int(F(const) * denom)
    g = gcd(*ic, ib)
    if g > 1:
        ic = tuple(x // g for x in ic)
        ib = ib // g
    return ic, ib, strict


def _fraction_dominate(cons):
    best = {}
    for c, b, strict in cons:
        cur = best.get(c)
        if cur is None or (b, 0 if strict else 1) < (cur[1], 0 if cur[2] else 1):
            best[c] = (c, b, strict)
    return list(best.values())


def fraction_fm_feasible(constraints, nvars):
    """Oracle: Fourier-Motzkin that rebuilds every constraint from Fractions."""
    cons = _fraction_dominate([_fraction_normalize(c, b, s) for c, b, s in constraints])
    for var in range(nvars - 1, -1, -1):
        pos = [c for c in cons if c[0][var] > 0]
        negs = [c for c in cons if c[0][var] < 0]
        zero = [c for c in cons if c[0][var] == 0]
        if not pos or not negs:
            cons = zero
            continue
        new = list(zero)
        for cp, bp, sp in pos:
            for cn, bn, sn in negs:
                fp, fn = -cn[var], cp[var]
                coeffs = tuple(fp * a + fn * b for a, b in zip(cp, cn))
                new.append(_fraction_normalize(coeffs, fp * bp + fn * bn, sp or sn))
        cons = _fraction_dominate(new)
    return all(b > 0 or (b == 0 and not strict) for _, b, strict in cons)


def lp_feasible(constraints, nvars):
    """Oracle: sympy's exact simplex maximises a slack t <= 1 on the strict
    rows; the system is feasible iff that maximum exists and is positive."""
    from sympy import Rational, S, Symbol, symbols
    from sympy.solvers.simplex import InfeasibleLPError, lpmax

    xs = symbols(f"x0:{nvars}")
    t = Symbol("t")
    rows = [t <= 1]
    for coeffs, const, strict in constraints:
        expr = sum(Rational(F(c)) * x for c, x in zip(coeffs, xs)) + Rational(F(const))
        row = expr >= t if strict else expr >= 0
        if row is S.false:
            return False
        if row is not S.true:
            rows.append(row)
    try:
        value, _ = lpmax(t, rows)
    except InfeasibleLPError:
        return False
    return bool(value > 0)


def _random_system(rng, nvars):
    rows = []
    for _ in range(rng.randint(0, 6)):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(nvars))
        if rng.random() < 0.3:
            coeffs = tuple(F(c, rng.randint(1, 3)) for c in coeffs)
        rows.append((coeffs, F(rng.randint(-4, 4), rng.randint(1, 4)), rng.random() < 0.5))
    return rows


@pytest.mark.parametrize("constraints, nvars, expected", [
    ([], 0, True),
    ([], 3, True),
    ([((), 0, False)], 0, True),
    ([((), 0, True)], 0, False),
    ([((), F(-1, 3), False)], 0, False),
    ([((), F(1, 3), True)], 0, True),
    ([((0, 0), 0, False)], 2, True),  # 0 >= 0
    ([((0, 0), 0, True)], 2, False),  # 0 > 0
    ([((1,), F(1, 2), False), ((-1,), F(-1, 2), False)], 1, True),  # x = -1/2
    ([((1,), F(1, 2), True), ((-1,), F(-1, 2), False)], 1, False),
    ([((2, 0), F(-1, 3), True), ((-5, 0), 1, True)], 2, True),  # 1/6 < x < 1/5
    ([((2, 0), F(-1, 3), True), ((-3, 0), F(1, 2), False)], 2, False),  # 1/6 < x <= 1/6
    ([((F(1, 2), 1), F(-1, 4), False), ((F(-1, 2), -1), F(1, 5), False)], 2, False),
])
def test_feasible_edge_cases(constraints, nvars, expected):
    assert feasible(constraints, nvars) is expected
    assert fraction_fm_feasible(constraints, nvars) is expected
    assert lp_feasible(constraints, nvars) is expected


def test_feasible_matches_fraction_fm_and_lpmax():
    rng = random.Random(8086)
    answers = []
    for case in range(2000):
        nvars = rng.randint(0, 4)
        system = _random_system(rng, nvars)
        got = feasible(system, nvars)
        assert got is fraction_fm_feasible(system, nvars), system
        if case % 80 == 0:  # lpmax takes about 45 ms a system
            assert got is lp_feasible(system, nvars), system
            answers.append(got)
    assert True in answers and False in answers


def test_prune_matches_fraction_fm(monkeypatch):
    rng = random.Random(6502)
    cases = []
    for _ in range(30):
        n = rng.choice((2, 3))
        p = random_polytope(rng, n, rng.randint(n + 1, 8))
        cases.append(p.translate(tuple(F(rng.randint(-2, 2), 2) for _ in range(n))))
    pruned = [prune_redundant(p).facets for p in cases]
    monkeypatch.setattr(polytope_module, "feasible", fraction_fm_feasible)
    assert [prune_redundant(p).facets for p in cases] == pruned


# -- pruning ------------------------------------------------------------------

def test_prune_parallel_dominance():
    p = polytope(1, [((1,), 1), ((1,), 2), ((-1,), 1)])
    pruned = prune_redundant(p)
    assert pruned.facets == tuple(sorted(polytope(1, [((1,), 1), ((-1,), 1)]).facets))


def test_prune_keeps_irredundant():
    s2 = simplex(2)
    assert prune_redundant(s2) == s2.canonical_form()


def test_prune_blowup2_collision():
    raw = polytope(
        2,
        [
            ((1, 0), 1),
            ((0, 1), F(5, 4)),
            ((1, 1), F(5, 4)),
            ((0, 1), 1),
            ((0, -1), F(1, 2)),
            ((1, 1), F(3, 2)),
            ((-1, -1), 1),
        ],
    )
    assert prune_redundant(raw) == blowup2_alpha().canonical_form()


def test_prune_skew_redundant_facet():
    # x1 + x2 + 3 >= 0 is implied by the triangle but parallel to nothing
    p = polytope(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1), ((1, 1), 3)])
    assert prune_redundant(p) == simplex(2).canonical_form()


def test_prune_idempotent_and_preserves_vertices_on_random_instances():
    rng = random.Random(424242)
    for _ in range(40):
        n = rng.choice((2, 3))
        p = random_polytope(rng, n, rng.randint(n + 1, 8))
        pruned = prune_redundant(p)
        assert prune_redundant(pruned) == pruned
        assert {v.point for v in pruned.vertices()} == {v.point for v in p.vertices()}


def test_prune_empty_interior_error():
    from momentcert.polytope import Facet, _prune_facet_list

    raw = [Facet((1,), F(-1)), Facet((-1,), F(0))]
    with pytest.raises(EmptyInteriorError):
        _prune_facet_list(1, raw)


# -- canonical form -----------------------------------------------------------

def test_canonical_form_is_order_invariant():
    facets = [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)]
    variants = [
        polytope(2, facets),
        polytope(2, facets[::-1]),
        polytope(2, [facets[1], facets[2], facets[0]]),
    ]
    canon = {p.canonical_form() for p in variants}
    assert len(canon) == 1


def test_canonical_form_of_a_canonical_polytope_is_itself():
    q = polytope(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)]).canonical_form()
    assert q.canonical_form() is q
    assert q.translate((3, 0)).canonical_form() is not q


def test_package_attribute_is_the_polytope_module():
    import momentcert
    from momentcert import polytope as from_package

    assert isinstance(polytope_module, ModuleType)
    assert from_package is polytope_module is momentcert.polytope


# -- equidistant point --------------------------------------------------------

def test_equidistant_simplex():
    for n in (1, 2, 3):
        point, t = equidistant_point(simplex(n))
        assert point == (0,) * n and t == 1


def test_equidistant_o_minus_one_family():
    a, lam = F(1, 4), F(1, 8)
    inst = o_minus_one(1, 1 + lam, 1 + a)
    point, t = equidistant_point(inst)
    assert point == (-a + lam, -a)
    assert t == 1 + lam - a


def test_equidistant_square():
    point, t = equidistant_point(cube(2))
    assert point == (0, 0) and t == 1


def test_equidistant_none_cases():
    assert equidistant_point(blowup2_alpha()) is None
    strip = polytope(2, [((1, 0), 1), ((-1, 0), 1)])
    assert equidistant_point(strip) is None


def test_equidistant_point_is_interior():
    rng = random.Random(7)
    for _ in range(30):
        p = random_polytope(rng, rng.randint(1, 3), rng.randint(3, 7))
        hit = equidistant_point(p)
        if hit is not None:
            assert p.interior_contains(hit[0])


# -- dilate / translate matching ----------------------------------------------

def test_match_cp1_instance():
    a = F(1, 4)
    inst = cp1(1, 1 - 2 * a)
    t, x0 = match_dilate_translate(inst, cp1())
    assert t == 1 - a and x0 == (-a,)


def test_match_self_is_identity():
    p = simplex(3)
    assert match_dilate_translate(p, p) == (1, (0, 0, 0))


def test_match_o_minus_one_instance():
    lam = F(3, 2)
    inst = o_minus_one(3, 3 - lam, 3)
    t, x0 = match_dilate_translate(inst, o_minus_one())
    assert t == 3 - lam
    assert x0 == (-lam, 0)
    # the model center maps onto the instance's own center
    center = equidistant_point(inst)
    assert center is not None and center[0] == x0


def test_match_fails_on_different_shape():
    assert match_dilate_translate(simplex(2), cube(2)) is None
    assert match_dilate_translate(weighted_projective((1, 1, 2)), simplex(2)) is None


def test_match_recovers_random_dilations():
    from momentcert.polytope import Facet, Polytope

    rng = random.Random(13)
    models = [simplex(1), simplex(2), simplex(3), cube(2), o_minus_one(), cp1()]
    for _ in range(40):
        model = rng.choice(models)
        t = F(rng.randint(1, 9), rng.randint(1, 4))
        x0 = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(model.dim))
        inst = Polytope(
            model.dim,
            tuple(
                Facet(f.normal, t * f.offset - sum(a * b for a, b in zip(x0, f.normal)))
                for f in model.facets
            ),
        )
        assert match_dilate_translate(inst, model) == (t, x0)


def test_translate_offsets():
    p = simplex(2).translate((F(1), F(2)))
    assert p.offsets == (0, -1, 4)
    assert p.translate((F(-1), F(-2))) == simplex(2)
