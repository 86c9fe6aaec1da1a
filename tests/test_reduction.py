import random
from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest

from conftest import interior_contains, map_point, mat_vec, offsets, solve_oracle
from test_polytope import fraction_fm_feasible
from momentcert import lattice
from momentcert.corpus import load_corpus_polytope, load_corpus_section
from momentcert.errors import (
    EmptyInteriorError,
    MomentcertError,
    NonPrimitiveImageError,
    NotCompactError,
    NotDelzantError,
    NotMonotoneError,
    PolytopeError,
    SliceError,
    SliceOutsidePolytopeError,
)
from momentcert.polytope import (
    Facet,
    Polytope,
    _blocks,
    _unvalidated,
    polytope,
    product,
    prune_redundant,
)
from momentcert.reduction import (
    AffineReduction,
    _vertex_cone_coords,
    cp1,
    cube,
    monotone_weights,
    o_minus_one,
    reduce_polytope,
    reduce_with_sources,
    section,
    simplex,
    weighted_projective,
)


def hexagon():
    return polytope(
        2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1), ((1, 1), 1), ((-1, -1), 1)]
    )


def blowup1():
    return polytope(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1), ((1, 1), 1)])


# -- section validation ---------------------------------------------------------

def test_section_requires_independent_columns():
    with pytest.raises(SliceError):
        section([(1, 0), (2, 0), (3, 0)])


def test_section_requires_lattice_surjectivity():
    with pytest.raises(SliceError):
        section([(2, 0), (0, 1), (0, 0)])


def test_section_base_length():
    with pytest.raises(SliceError):
        section([(1, 0), (0, 1)], base=(0,))


@pytest.mark.parametrize("rows", [[[1.9], [0.2]], [[1.0], [0]], [["1"], [0]]])
def test_section_refuses_a_matrix_entry_that_is_not_an_integer(rows):
    # int() would truncate [[1.9], [0.2]] to the matrix ((1,), (0,)) without a word
    with pytest.raises(TypeError):
        section(rows)


def test_section_refuses_a_float_base():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(SliceError, match="base must be exact"):
        section([[1], [0]], [0.1, 0])
    assert section([[1], [0]], ["1/10", 0]).base == (F(1, 10), 0)


@pytest.mark.parametrize("matrix, base", [
    (((1.0,), (1.0,)), (0, 0)),
    (((1,), (0,)), (0.5, 0)),
    (((1,), (0,)), ("1/2", 0)),
])
def test_a_section_built_directly_refuses_inexact_entries(matrix, base):
    # section() coerces its input; the dataclass itself must not take a float either
    with pytest.raises(SliceError, match="section entries must be exact"):
        AffineReduction(matrix, base)


def test_preimage_and_map_point():
    hexa = section([(1, 0), (0, 1), (1, 1)])
    assert map_point(hexa, (0, 0)) == (0, 0, 0)
    sec = section([(1, 0), (0, 1), (0, 1), (1, 1)])
    a, lam = F(1, 4), F(1, 4)
    y = (-a + lam, -a)
    assert map_point(sec, y) == (-a + lam, -a, -a, -2 * a + lam)
    assert sec.preimage((-a + lam, -a, -a, -2 * a + lam)) == y
    assert sec.preimage((0, 0, 1, 0)) is None


def test_mcduff_section_levels():
    sec = section([(1, 0), (0, 1), (0, 1), (-1, -2), (0, -1)])
    lam = F(3, 2)
    assert map_point(sec, (lam, 0)) == (lam, 0, 0, -lam, 0)


def test_subtorus_recovery():
    # the quotiented circle of the cube-to-hexagon reduction, at level 0
    hexa = section([(1, 0), (0, 1), (1, 1)])
    assert hexa.subtorus_generators() == ((-1, -1, 1),)
    assert hexa.levels() == (0,)
    # the 2-torus behind the two-point blow-up reduction
    fooo = section([(1, 0), (0, 1), (0, 1), (1, 1)])
    assert fooo.subtorus_generators() == ((0, -1, 1, 0), (-1, -1, 0, 1))
    # a section onto a point quotients the whole torus: the standard basis
    point = section([(), (), ()], base=(F(1, 2), 0, -1))
    assert point.subtorus_generators() == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert point.levels() == (F(1, 2), 0, -1)
    # generators always annihilate the section image and are primitive
    from momentcert.lattice import dot, is_primitive

    for sec in (
        hexa,
        fooo,
        section([(1, 0), (0, 1), (0, 1), (-1, -2), (0, -1)]),
        section([(1, 0), (0, 1), (-1, -1)], base=(F(1, 8), 0, 0)),
        point,
    ):
        gens = sec.subtorus_generators()
        assert len(gens) == sec.ambient_dim - sec.reduced_dim
        for k, level in zip(gens, sec.levels()):
            assert is_primitive(k)
            assert level == dot(sec.base, k)
            for col in zip(*sec.matrix):
                assert dot(k, col) == 0


@pytest.mark.parametrize("name, generators", [
    ("hexagon_section", ((-1, -1, 1),)),
    ("cp2_section", ((1, 1, 1),)),
    ("cp4_section", ((1, 1, 1, 1, 1),)),
    ("cp2_blowup1_section", ((1, 1, 1),)),
    ("cp2_blowup2_section", ((0, -1, 1, 0), (-1, -1, 0, 1))),
    ("nonfano_pentagon_section", ((0, -1, 1, 0, 0), (1, 2, 0, 1, 0), (0, 1, 0, 0, 1))),
    ("hirzebruch2_section", ((0, -1, 1),)),
])
def test_subtorus_generators_of_the_corpus_sections(name, generators):
    # pinned: `reduce` prints these, so the Smith form's V must not drift
    sec = load_corpus_section(name)
    assert sec.subtorus_generators() == generators
    assert sec.levels() == (0,) * len(generators)


def test_section_reads_its_generators_without_a_smith_form(monkeypatch, fresh_corpus):
    calls = []
    original = lattice.smith_normal_form

    def counted(mat):
        calls.append(mat)
        return original(mat)

    monkeypatch.setattr(lattice, "smith_normal_form", counted)
    sections = [load_corpus_section("nonfano_pentagon_section"), section([(), ()], base=(1, 2))]
    assert len(calls) == 2  # one per construction
    for sec in sections:
        assert len(sec.subtorus_generators()) == len(sec.levels()) > 0
    assert len(calls) == 2


# -- standard models --------------------------------------------------------------

def test_models():
    assert simplex(2).normals == ((1, 0), (0, 1), (-1, -1))
    assert weighted_projective((1, 1, 2)).facets[-1].normal == (-1, -2)
    assert o_minus_one().normals == ((1, 0), (0, 1), (1, 1))
    assert offsets(cp1(1, F(1, 2))) == (1, F(1, 2))
    assert cube(2).d == 4
    with pytest.raises(ValueError):
        weighted_projective((2, 1))


@pytest.mark.parametrize("n", range(6))
def test_cube_is_the_explicit_plus_minus_e_system(n):
    for offset in (1, 2, F(3, 2), "5/4"):
        facets = []
        for j in range(n):
            e = tuple(int(i == j) for i in range(n))
            facets += [Facet(e, F(offset)), Facet(tuple(-x for x in e), F(offset))]
        got = cube(n, offset)
        assert got == Polytope(n, tuple(facets))
        assert all(type(f.offset) is F for f in got.facets)


@pytest.mark.parametrize("offset, error", [
    (0, EmptyInteriorError), (-1, EmptyInteriorError), (0.5, PolytopeError),
])
def test_cube_refuses_an_offset_as_its_spheres_do(offset, error):
    with pytest.raises(error) as from_cube:
        cube(2, offset)
    with pytest.raises(error) as from_sphere:
        cp1(offset, offset)
    assert str(from_cube.value) == str(from_sphere.value)


# -- golden reductions -------------------------------------------------------------

def test_cube_to_hexagon():
    got = reduce_polytope(cube(3), section([(1, 0), (0, 1), (1, 1)]))
    assert got == hexagon().canonical_form()


def test_cp3_to_cp2():
    got = reduce_polytope(simplex(3), section([(1, 0), (0, 1), (-1, -1)]))
    assert got == simplex(2).canonical_form()


def test_wp1112_to_blowup():
    got = reduce_polytope(weighted_projective((1, 1, 1, 2)), section([(1, 0), (0, 1), (-1, -1)]))
    assert got == blowup1().canonical_form()


def test_identity_section_is_identity():
    p = simplex(2)
    assert reduce_polytope(p, section([(1, 0), (0, 1)])) == p.canonical_form()


def test_blowup2_reduction():
    a = lam = F(1, 4)
    ambient = product(
        product(o_minus_one(1, 1 + lam, 1 + a), cp1(1, 1 - 2 * a)),
        cp1(1 + 4 * a - 2 * lam, 1),
    )
    got = reduce_polytope(ambient, section([(1, 0), (0, 1), (0, 1), (1, 1)]))
    target = polytope(
        2,
        [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1), ((1, 1), 1 + a), ((0, -1), 1 - 2 * a)],
    )
    assert got == target.canonical_form()


def test_mcduff_reduction():
    lam = F(3, 2)
    wp = polytope(2, [((1, 0), 1), ((0, 1), 1 + lam), ((-1, -2), 1 + 2 * lam)])
    ambient = product(product(wp, cp1(1, 1)), o_minus_one(3, 3 - lam, 3))
    got = reduce_polytope(
        ambient, section([(1, 0), (0, 1), (0, 1), (-1, -2), (0, -1)])
    )
    target = polytope(
        2, [((1, 0), 1), ((0, 1), 1), ((0, -1), 1), ((-1, -3), 3), ((-1, -2), 3)]
    )
    assert got == target.canonical_form()


def test_hirzebruch_reduction():
    ambient = product(weighted_projective((1, 1, 2), 2), cp1(1, 1))
    got = reduce_polytope(ambient, section([(1, 0), (0, 1), (0, 1)]))
    target = polytope(2, [((1, 0), 2), ((0, 1), 1), ((0, -1), 1), ((-1, -2), 2)])
    assert got == target.canonical_form()
    assert got.is_delzant()


# -- error paths ---------------------------------------------------------------------

def test_zero_image_with_clearance_is_dropped():
    # the slanted facet of the simplex is parallel to this slice and clear of it
    got = reduce_polytope(simplex(3), section([(1, 0), (0, 1), (-1, -1)]))
    assert got.d == 3


def test_zero_image_without_clearance_errors():
    # slide the slice onto the slanted facet: x0 pairs to -1 with it
    sec = section([(1, 0), (0, 1), (-1, -1)], base=(F(1, 3), F(1, 3), F(1, 3)))
    with pytest.raises(SliceOutsidePolytopeError):
        reduce_polytope(simplex(3), sec)


def test_non_primitive_image_errors():
    # x2 = x1 halves the lattice against the normal (1,1)
    p = polytope(2, [((1, 1), 1), ((-1, 0), 1), ((0, -1), 1)])
    with pytest.raises(NonPrimitiveImageError):
        reduce_polytope(p, section([(1,), (1,)]))


def test_dimension_mismatch_errors():
    with pytest.raises(SliceError):
        reduce_polytope(simplex(2), section([(1, 0), (0, 1), (1, 1)]))


# -- clearances -------------------------------------------------------------------

def fraction_reduce(ambient, sec):
    """Oracle for reduce_with_sources: each image A^T nu in ints and each
    clearance a + <x0, nu> as a sum of Fraction products, gathered into the
    sources dict and pruned; the same errors, with the same messages."""
    sources = {}
    for nu, a in ambient.facets:
        image = tuple(sum(row[c] * x for row, x in zip(sec.matrix, nu))
                      for c in range(sec.reduced_dim))
        clearance = a + sum((F(b) * x for b, x in zip(sec.base, nu)), F(0))
        if not any(image):
            if clearance <= 0:
                raise SliceOutsidePolytopeError(
                    f"slice misses the interior: facet {nu} has clearance {clearance}")
            continue
        if gcd(*image) != 1:
            raise NonPrimitiveImageError(f"facet {nu} maps to non-primitive {image}")
        facet = Facet(image, clearance)
        sources[facet] = sources.get(facet, ()) + (nu,)
    if not fraction_fm_feasible([(f.normal, f.offset, True) for f in sources],
                                sec.reduced_dim):
        raise EmptyInteriorError("cannot prune a system with empty interior")
    return prune_redundant(_unvalidated(sec.reduced_dim, tuple(sources))), sources


def outcome(reduce, ambient, sec):
    """The reduced polytope, the sources of each of its facets in its order
    and the offsets' types; or the error's type and message."""
    try:
        got, sources = reduce(ambient, sec)
    except MomentcertError as exc:
        return type(exc).__name__, str(exc)
    return got, [(f, sources[f]) for f in got.facets], [type(f.offset) for f in got.facets]


def _clearance_case(rng):
    """A section onto k of n coordinates whose base x0 is fractional and
    mostly negative (denominators 2 to 7), and an ambient polytope drawn in
    the section's own coordinates.  The section's matrix is the first k
    columns of a unimodular U, and x = x0 + U y pairs with the normal nu with
    U^T nu = (w, t) to <x, nu> = <x0, nu> + <y, (w, t)>: nu has the image w
    and, at y = 0, the clearance c that is drawn for it, so its offset is
    c - <x0, nu>.  Images come out primitive, non-primitive or zero; a second
    t gives a second facet with the same image, and an opposite image at the
    opposite clearance leaves the reduced system no interior.  A facet is
    kept only if it holds strictly at a point y* off the slice, so x0 + U y*
    is interior and the ambient is valid without a feasibility test."""
    n = rng.randint(1, 4)
    k = rng.randint(0, n)
    u = _random_unimodular(rng, n)
    base = tuple(F(rng.randint(-9, 3), rng.randint(2, 7)) for _ in range(n))
    sec = section([row[:k] for row in u], base)
    star = [F(0)] * k + [F(rng.randint(-3, 3), 2) for _ in range(n - k)]
    facets = {}
    size = rng.randint(n + 1, n + 5)
    for _ in range(3 * size):  # n = 1 has two normals only
        if len(facets) == size:
            break
        image = [rng.randint(-2, 2) for _ in range(k)]
        if any(image):  # made primitive, except that a few are doubled
            scale = 2 if rng.random() < 0.08 else 1
            image = [scale * x // lattice.vec_gcd(image) for x in image]
        tail = [rng.randint(-2, 2) for _ in range(n - k)]
        clearance = F(rng.randint(-2, 9), rng.randint(1, 3))
        drawn = [(image, tail, clearance)]
        roll = rng.random()
        if k < n and any(image) and roll < 0.45:
            tail = [x + rng.choice((-1, 1)) for x in tail]
            drawn.append((image, tail, clearance) if roll < 0.3 else
                         (lattice.neg(image), tail, -clearance))
        for image, tail, clearance in drawn:
            v = [*image, *tail]
            if any(v) and lattice.vec_gcd(v) == 1 and clearance + lattice.dot(star, v) > 0:
                nu = tuple(int(x) for x in solve_oracle(lattice.transpose(u), v)[0])
                facets[nu] = clearance - lattice.dot(base, nu)
    ambient = _unvalidated(n, tuple(Facet(nu, a) for nu, a in facets.items()))
    assert interior_contains(ambient, map_point(section(u, base), star))
    return ambient, sec


def test_clearances_match_fraction_arithmetic():
    rng = random.Random(2020)
    seen = {"reduced": 0, "SliceOutsidePolytopeError": 0, "NonPrimitiveImageError": 0,
            "EmptyInteriorError": 0, "parallel facet dropped": 0, "shared image": 0,
            "onto a point": 0}
    for _ in range(400):
        ambient, sec = _clearance_case(rng)
        got = outcome(reduce_with_sources, ambient, sec)
        assert got == outcome(fraction_reduce, ambient, sec), (ambient, sec)
        if len(got) == 2:
            seen[got[0]] += 1
            continue
        # the package's sources hold the kept facets alone, the oracle's all
        assert list(reduce_with_sources(ambient, sec)[1]) == list(got[0].facets)
        sources = fraction_reduce(ambient, sec)[1]
        seen["reduced"] += 1
        seen["parallel facet dropped"] += sum(map(len, sources.values())) < ambient.d
        seen["shared image"] += any(len(normals) > 1 for normals in sources.values())
        seen["onto a point"] += sec.reduced_dim == 0
    assert all(count >= 20 for count in seen.values()), seen


@pytest.mark.parametrize("base, clearance", [
    ((F(1, 2), F(1, 3), F(1, 3)), "-1/6"),
    ((F(1, 3), F(1, 3), F(1, 3)), "0"),
])
def test_slice_outside_message_is_unchanged(base, clearance):
    sec = section([(1, 0), (0, 1), (-1, -1)], base=base)
    with pytest.raises(SliceOutsidePolytopeError) as caught:
        reduce_with_sources(simplex(3), sec)
    assert str(caught.value) == (
        f"slice misses the interior: facet (-1, -1, -1) has clearance {clearance}")


# -- reduction in stages ----------------------------------------------------------

def _assert_composes(outer, inner, composite):
    """composite maps each point as inner, then outer, does."""
    for y in ((0, 0), (1, 0), (0, 1), (F(-2, 3), F(5, 2))):
        assert map_point(composite, y) == map_point(outer, map_point(inner, y))


def test_stage_composition_matches_composite():
    outer = section([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)])  # x4 = x1 + x2
    inner = section([(1, 0), (0, 1), (0, 1)])  # x3 = x2
    composite = section([(1, 0), (0, 1), (0, 1), (1, 1)])
    _assert_composes(outer, inner, composite)

    a = lam = F(1, 4)
    ambient = product(
        product(o_minus_one(1, 1 + lam, 1 + a), cp1(1, 1 - 2 * a)),
        cp1(1 + 4 * a - 2 * lam, 1),
    )
    staged = reduce_polytope(reduce_polytope(ambient, outer), inner)
    direct = reduce_polytope(ambient, composite)
    assert staged == direct


def test_stage_composition_pentagon():
    # peel the pentagon reduction into x4,x5 substitutions then x3 = x2
    lam = F(3, 2)
    wp = polytope(2, [((1, 0), 1), ((0, 1), 1 + lam), ((-1, -2), 1 + 2 * lam)])
    ambient = product(product(wp, cp1(1, 1)), o_minus_one(3, 3 - lam, 3))
    outer = section(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -2, 0), (0, -1, 0)]
    )
    inner = section([(1, 0), (0, 1), (0, 1)])
    composite = section([(1, 0), (0, 1), (0, 1), (-1, -2), (0, -1)])
    _assert_composes(outer, inner, composite)
    staged = reduce_polytope(reduce_polytope(ambient, outer), inner)
    assert staged == reduce_polytope(ambient, composite)


def test_reduce_respects_points():
    ambient = cube(3)
    sec = section([(1, 0), (0, 1), (1, 1)])
    reduced = reduce_polytope(ambient, sec)
    for v in reduced.vertices():
        assert all(x >= 0 for x in ambient.support_values(map_point(sec, v.point)))
    assert interior_contains(ambient, map_point(sec, (0, 0)))


# -- weight lemma ----------------------------------------------------------------

def test_monotone_weights_blowup():
    wv = monotone_weights(blowup1())
    canon = blowup1().canonical_form()
    assert canon.normals == ((-1, -1), (0, 1), (1, 0), (1, 1))
    assert wv.weights == (2, 1, 1, 1)
    assert wv.pivot == 3
    # the identity nu_k + sum m_j nu_j = 0 in the paper-facing form
    total = [0, 0]
    for m, nu in zip(wv.weights, canon.normals):
        total[0] += m * nu[0]
        total[1] += m * nu[1]
    assert total == [0, 0]


def test_monotone_weights_zero_sum_cases():
    for p, d in ((simplex(2), 3), (cube(2), 4), (hexagon(), 6)):
        total = tuple(sum(nu[i] for nu in p.normals) for i in range(p.dim))
        if all(x == 0 for x in total):
            wv = monotone_weights(p)
            assert wv.weights == (1,) * d
            assert wv.pivot == d - 1
    wv = monotone_weights(simplex(2))
    assert wv.weights == (1, 1, 1)


def test_monotone_weights_rejects():
    with pytest.raises(NotCompactError):
        monotone_weights(o_minus_one())
    with pytest.raises(NotDelzantError):
        monotone_weights(weighted_projective((1, 1, 2)))


def test_monotone_weights_rejects_a_polytope_with_no_facets():
    # the pivot has to name a facet (m_pivot = 1); a point has none
    with pytest.raises(NotMonotoneError, match="at least one facet"):
        monotone_weights(Polytope(0, ()))


# -- vertex cones -----------------------------------------------------------------

def test_vertex_cone_cube():
    indices, coeffs = _vertex_cone_coords(cube(3), (1, 1, 1))
    active_normals = {cube(3).facets[i].normal for i in indices}
    assert active_normals == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert coeffs == (1, 1, 1)


def test_vertex_cone_origin_target():
    # every block's part of the target is 0: no coordinate, so none non-zero
    indices, coeffs = _vertex_cone_coords(simplex(2), (0, 0))
    assert indices == coeffs == ()


def test_vertex_cone_blowup_deficit():
    # the deficit -(sum of normals) of the one-point blow-up sits in the cone
    # where the (-1,-1) facet is active with coefficient 1
    p = blowup1().canonical_form()
    indices, coeffs = _vertex_cone_coords(p, (-1, -1))
    assert len(indices) == p.dim
    weights = dict(zip(indices, coeffs))
    slanted = p.normals.index((-1, -1))
    assert weights[slanted] == 1
    assert all(c == 0 for i, c in weights.items() if i != slanted)


def test_vertex_cone_refuses_fractional_coordinates():
    # CP(1,1,2) is not Delzant: at the vertex (-1, 1) the normals (-1, -2)
    # and (1, 0) span an index-2 sublattice, and (0, -1) sits at (1/2, 1/2)
    # in them: truncated to integers they would read as the admissible (0, 0)
    p = weighted_projective((1, 1, 2)).canonical_form()
    with pytest.raises(NotDelzantError, match=r"\(1/2, 1/2\) at vertex \(-1, 1\)"):
        _vertex_cone_coords(p, (0, -1))


def test_vertex_cone_refuses_a_block_where_no_cone_holds_the_target():
    # the wedge O(-1) is not compact: (-1, -1) lies in no cone of its two vertices
    with pytest.raises(NotCompactError, match=r"no vertex cone holds target \(-1, -1\)"):
        _vertex_cone_coords(o_minus_one(), (-1, -1))


# -- weight lemma on seeded compact Delzant polytopes ---------------------------

def _fraction_solve(columns, target):
    """Coordinates of target in the basis `columns`, by Gauss-Jordan in
    Fractions; the columns must be linearly independent and span."""
    n = len(target)
    aug = [[F(col[i]) for col in columns] + [F(target[i])] for i in range(n)]
    for c in range(n):
        r = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[r] = aug[r], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                aug[r] = [x - aug[r][c] * y for x, y in zip(aug[r], aug[c])]
    return [row[n] for row in aug]


def _cone_oracle(p, vertices, target):
    """The first of p's vertices, in p.vertices() order, whose normal cone
    holds target."""
    for vertex in vertices:
        active = sorted(vertex.active)
        coeffs = _fraction_solve([p.facets[i].normal for i in active], target)
        if all(c >= 0 for c in coeffs):
            return vertex, coeffs, active
    raise AssertionError("no vertex cone holds the target")


def _random_unimodular(rng, n):
    """Random elementary row operations, a row shuffle and a sign: det = +-1."""
    m = [list(row) for row in lattice.identity(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-1, 1))
        m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    m[0] = [-x for x in m[0]] if rng.random() < 0.5 else m[0]
    return m


def _random_compact_delzant(rng):
    """A product of small compact Delzant factors in 1 to 4 coordinates,
    dilated, with normals mapped by a random unimodular C and facets shuffled.
    Half the inputs contain the one-point blow-up, whose normal sum is not 0."""
    blowup = rng.random() < 0.5
    dim = rng.randint(2 if blowup else 1, 4)
    factors = [load_corpus_polytope("cp2_blowup1")] if blowup else []
    while sum(f.dim for f in factors) < dim:
        room = dim - sum(f.dim for f in factors)
        choices = [cp1(), simplex(rng.randint(1, room)), cube(rng.randint(1, room))]
        if room >= 2:
            choices += [load_corpus_polytope("hexagon"), load_corpus_polytope("cp2_blowup1")]
        factors.append(rng.choice(choices))
    prod = factors[0]
    for factor in factors[1:]:
        prod = product(prod, factor)
    c = _random_unimodular(rng, prod.dim)
    scale = F(rng.randint(1, 5), rng.randint(1, 3))
    facets = [(mat_vec(c, nu), scale * a) for nu, a in prod.facets]
    rng.shuffle(facets)
    return polytope(prod.dim, facets)


def test_weight_lemma_on_seeded_compact_delzant_polytopes():
    rng = random.Random(1112)
    tilted = 0
    for _ in range(300):
        p = _random_compact_delzant(rng)
        n = p.dim
        deficit = tuple(-sum(nu[i] for nu in p.normals) for i in range(n))
        vertices = p.vertices()
        for target in (deficit, tuple(rng.randint(-2, 2) for _ in range(n))):
            indices, coeffs = _vertex_cone_coords(p, target)
            want, want_coeffs, active = _cone_oracle(p, vertices, target)
            # the facets of the oracle's vertex, less the blocks whose part of
            # target is 0, where every coordinate is 0
            assert set(indices) <= want.active
            assert dict(zip(indices, coeffs)) == {
                i: c for i, c in zip(active, want_coeffs) if i in indices}
            assert all(c == 0 for i, c in zip(active, want_coeffs) if i not in indices)
            assert all(isinstance(x, int) and x >= 0 for x in coeffs)
            got = tuple(
                sum(x * p.facets[i].normal[k] for x, i in zip(coeffs, indices)) for k in range(n)
            )
            assert got == target

        canon = p.canonical_form()
        wv = monotone_weights(p)
        assert len(wv.weights) == canon.d
        assert all(m >= 1 for m in wv.weights)
        balance = tuple(sum(m * nu[k] for m, nu in zip(wv.weights, canon.normals)) for k in range(n))
        assert balance == (0,) * n
        assert wv.pivot == max(i for i, m in enumerate(wv.weights) if m == 1)
        tilted += any(x != 0 for x in deficit)
    assert tilted >= 100


# -- the weight lemma per block against the whole product's vertex list ---------

TILTED = ("cp2_blowup1", "cp2_blowup2_alpha", "hirzebruch2", "nonfano_pentagon")
BALANCED = ("segment", "simplex2", "square", "hexagon", "simplex3", "cube")


def _product_vertex_cone(p, target):
    """Oracle: the weight lemma's cone as it was found on the whole
    product's sorted vertex list, before it ran per block.  Returns the
    non-zero coordinates of target, by facet index, at the first vertex of
    p.vertices() whose cone holds it."""
    for vertex in p.vertices():
        active = sorted(vertex.active)
        coeffs = _fraction_solve([p.facets[i].normal for i in active], target)
        if all(c >= 0 for c in coeffs):
            assert all(c.denominator == 1 for c in coeffs)
            return {i: c.numerator for i, c in zip(active, coeffs) if c}
    raise AssertionError("no vertex cone holds the target")


def _product_vertex_weights(p):
    """Oracle: monotone_weights on _product_vertex_cone of the deficit."""
    canon = p.canonical_form()
    deficit = tuple(-sum(column) for column in zip(*canon.normals))
    weights = [1] * canon.d
    if any(deficit):
        for i, c in _product_vertex_cone(canon, deficit).items():
            weights[i] += c
    return tuple(weights), max(i for i, m in enumerate(weights) if m == 1)


def _shuffled_corpus_product(rng):
    """A product of one to three compact Delzant corpus polytopes, at least
    one with a non-zero normal sum, with its coordinates permuted and its
    facets shuffled; a third of the inputs are sheared by a random
    unimodular map instead, which leaves one coordinate block."""
    sheared = rng.random() < 1 / 3
    names = [rng.choice(TILTED)]
    for _ in range(rng.randint(0, 1 if sheared else 2)):
        names.append(rng.choice(TILTED + BALANCED))
    rng.shuffle(names)
    prod = load_corpus_polytope(names[0])
    for name in names[1:]:
        prod = product(prod, load_corpus_polytope(name))
    n = prod.dim
    if sheared:
        c = _random_unimodular(rng, n)
        facets = [(mat_vec(c, nu), a) for nu, a in prod.facets]
    else:
        perm = rng.sample(range(n), n)
        facets = [(tuple(nu[k] for k in perm), a) for nu, a in prod.facets]
    rng.shuffle(facets)
    return polytope(n, facets)


def _shape(p):
    """The kinds of coordinate blocks p splits into, as test_reduction counts them."""
    canon = p.canonical_form()
    deficit = [-sum(column) for column in zip(*canon.normals)]
    blocks = [tuple(coords) for coords, _, _ in _blocks(canon)[0]]
    parts = [any(deficit[c] for c in coords) for coords in blocks]
    kinds = set()
    if len(blocks) == 1:
        kinds.add("single block")
    if any(parts) and not all(parts):
        kinds.add("zero-deficit block")
    if any(coords != tuple(range(coords[0], coords[-1] + 1)) for coords in blocks):
        kinds.add("interleaved blocks")
    return kinds


def test_weight_lemma_per_block_matches_the_product_vertex_list():
    rng = random.Random(3301)
    seen = Counter()
    for _ in range(240):
        p = _shuffled_corpus_product(rng)
        wv = monotone_weights(p)
        assert (wv.weights, wv.pivot) == _product_vertex_weights(p), p.facets
        # a random target, zero on a random block half the time, reaches
        # cones the deficit does not
        canon = p.canonical_form()
        target = [rng.randint(-2, 2) for _ in range(canon.dim)]
        if rng.random() < 0.5:
            for c in rng.choice(_blocks(canon)[0])[0]:
                target[c] = 0
        indices, coeffs = _vertex_cone_coords(canon, tuple(target))
        got = {i: c for i, c in zip(indices, coeffs) if c}
        assert got == _product_vertex_cone(canon, tuple(target)), (canon.facets, target)
        seen.update(_shape(p))
        seen["tilted"] += any(m > 1 for m in wv.weights)
    assert min(seen[k] for k in ("single block", "zero-deficit block", "interleaved blocks",
                                 "tilted")) >= 40, seen
