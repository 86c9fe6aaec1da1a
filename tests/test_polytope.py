import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations
from math import gcd, lcm
from types import ModuleType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentcert.polytope as polytope_module
from conftest import interior_contains, offsets, random_polytope, solve_oracle, translate
from momentcert import lattice
from momentcert.corpus import load_corpus_polytope
from momentcert.errors import EmptyInteriorError, PolytopeError
from momentcert.polytope import (
    Facet,
    Polytope,
    Vertex,
    _delzant_at,
    _prune_facet_list,
    _ray_witnessed,
    _unvalidated,
    equidistant_point,
    feasible,
    polytope,
    product,
    prune_redundant,
)
from momentcert.reduction import (
    cp1,
    cube,
    o_minus_one,
    reduce_polytope,
    section,
    simplex,
    weighted_projective,
)


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


@pytest.mark.parametrize("entry", [1.7, 1.0, "1"])
def test_rejects_a_normal_entry_that_is_not_an_integer(entry):
    # int() would truncate 1.7 to the normal (1,) without a word
    with pytest.raises(TypeError):
        polytope(1, [((entry,), 1), ((-1,), 1)])


@pytest.mark.parametrize("offset", [0.5, "1/2"])
def test_a_polytope_built_directly_refuses_an_inexact_offset(offset):
    # polytope() coerces its input; the dataclass itself must not take a float either
    # (a non-integer normal entry already fails in the primitivity test)
    with pytest.raises(PolytopeError, match=f"offset {offset!r} of facet \\(1,\\) is not exact"):
        Polytope(1, (Facet((1,), offset), Facet((-1,), F(1, 2))))


def test_a_polytope_without_facets_has_no_common_offset_and_no_center():
    point = polytope(0, ())
    assert equidistant_point(point) is None


def test_rejects_too_few_facets():
    with pytest.raises(PolytopeError):
        polytope(2, [((1, 0), 1)])


# -- product ------------------------------------------------------------------

def test_product_square():
    sq = product(cp1(), cp1())
    assert sq.normals == ((1, 0), (-1, 0), (0, 1), (0, -1))
    assert all(a == 1 for a in offsets(sq))


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


def fraction_vertices(p):
    """Oracle: every facet evaluated in Fraction arithmetic at each solution."""
    found = {}
    for subset in combinations(range(p.d), p.dim):
        rows = [p.facets[i].normal for i in subset]
        rhs = [-p.facets[i].offset for i in subset]
        sol = solve_oracle(rows, rhs)
        if sol is None or sol[1]:
            continue
        point = sol[0]
        values = p.support_values(point)
        if any(v < 0 for v in values):
            continue
        found.setdefault(point, frozenset(i for i, v in enumerate(values) if v == 0))
    return tuple(Vertex(point=q, active=found[q]) for q in sorted(found))


def _vertex_test_polytope(rng, n):
    """A translated random polytope: offset 1 on small normals makes
    degenerate vertices likely, few facets or one-sided normals make it
    unbounded, and the translation makes offsets Fractions and non-positive."""
    span = rng.choice((1, 2, 3))
    d = rng.randint(n, n + 5)
    facets, seen = [], set()
    while len(facets) < d:
        vec = tuple(rng.randint(-span, span) for _ in range(n))
        if not any(vec):
            continue
        g = lattice.vec_gcd(vec)
        normal = tuple(x // g for x in vec)
        offset = 1 if rng.random() < 0.5 else F(rng.randint(1, 6), rng.randint(1, 3))
        if (normal, offset) not in seen:
            seen.add((normal, offset))
            facets.append((normal, offset))
    shift = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
    return translate(polytope(n, facets), shift)


def test_vertices_match_fraction_evaluation_on_random_polytopes():
    rng = random.Random(1987)
    seen = {"unbounded": 0, "degenerate": 0, "fraction offset": 0, "offset <= 0": 0}
    for _ in range(300):
        p = _vertex_test_polytope(rng, rng.randint(1, 4))
        verts = p.vertices()
        assert verts == fraction_vertices(p), p.facets
        seen["unbounded"] += not p.is_compact()
        seen["degenerate"] += sum(len(v.active) > p.dim for v in verts)
        seen["fraction offset"] += any(a.denominator != 1 for a in offsets(p))
        seen["offset <= 0"] += any(a <= 0 for a in offsets(p))
    assert all(count >= 20 for count in seen.values()), seen


@st.composite
def vertex_test_polytopes(draw, max_facets=9):
    n = draw(st.integers(1, min(4, max_facets)))
    normals = st.tuples(*[st.integers(-2, 2)] * n).filter(any).map(
        lambda v: tuple(x // lattice.vec_gcd(v) for x in v))
    offset_values = st.one_of(st.just(F(1)), st.fractions(F(1, 3), 6, max_denominator=3))
    facets = draw(st.lists(st.tuples(normals, offset_values), min_size=n,
                           max_size=min(n + 5, max_facets), unique=True))
    shift = draw(st.tuples(*[st.fractions(-4, 4, max_denominator=3)] * n))
    return translate(polytope(n, facets), shift)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(vertex_test_polytopes())
def test_vertices_property_matches_fraction_evaluation(p):
    assert p.vertices() == fraction_vertices(p)


def test_vertices_build_no_fraction_per_facet(monkeypatch):
    p = translate(product(hexagon(), simplex(2)), (F(1, 3), 0, F(-1, 2), 0))
    expected = fraction_vertices(p)

    def refuse(*args):
        raise AssertionError("vertices() evaluated a facet through support")

    monkeypatch.setattr(Polytope, "support", refuse)
    monkeypatch.setattr(Polytope, "support_values", refuse)
    assert p.vertices() == expected


# -- coordinate blocks ----------------------------------------------------------

def flat_vertices(p):
    """Oracle: the unsplit scan over every dim-subset of p's facets."""
    found = polytope_module._vertex_scan(p)
    return tuple(sorted((Vertex(point=scan_point(*q), active=on) for q, on in found.items()),
                        key=lambda v: v.point))


def scan_point(num, den):
    """A point of _vertex_scan, numerators over one denominator, as Fractions."""
    return tuple(F(x, den) for x in num)


def flat_is_compact(p):
    """The unsplit cone test over every dim-subset of p's normals."""
    return polytope_module._compact_scan(p)


def ray_scan_is_compact(p):
    """Oracle: the extreme-ray scan.  p is bounded iff its normals have full
    rank and no kernel line of a (dim-1)-subset of normals pairs >= 0 with
    every normal in one of its two directions; with dim 1 the kernel of no
    rows is the whole line."""
    n, normals = p.dim, p.normals
    if n == 0:
        return True  # a point
    if lattice.rank_exact(normals) < n:
        return False  # a line in the recession cone
    for subset in combinations(normals, n - 1):
        kernel = solve_oracle(subset, [0] * len(subset))[1] if subset else ((1,),)
        if len(kernel) != 1:
            continue
        for ray in (kernel[0], lattice.neg(kernel[0])):
            if all(lattice.dot(nu, ray) >= 0 for nu in normals):
                return False
    return True


def shuffled_product(factors, order, perm):
    """The product of factors with its facets taken in `order` and coordinate
    c moved to perm[c]; both permutations keep the system valid."""
    prod = factors[0]
    for q in factors[1:]:
        prod = product(prod, q)
    facets = []
    for i in order:
        nu, a = prod.facets[i]
        moved = [0] * prod.dim
        for c, x in enumerate(nu):
            moved[perm[c]] = x
        facets.append(polytope_module.Facet(tuple(moved), a))
    return polytope_module._unvalidated(prod.dim, tuple(facets))


def _random_shuffled_product(rng):
    """1-3 factors from _vertex_test_polytope, at most 12 facets in all."""
    factors, budget = [], 12
    for _ in range(rng.randint(1, 3)):
        if budget < 2:
            break
        q = _vertex_test_polytope(rng, rng.randint(1, min(3, budget // 2)))
        if q.d <= budget:
            factors.append(q)
            budget -= q.d
    factors = factors or [_vertex_test_polytope(rng, 1)]
    dim, d = sum(q.dim for q in factors), sum(q.d for q in factors)
    return shuffled_product(factors, rng.sample(range(d), d), rng.sample(range(dim), dim))


def union_find_blocks(p):
    """The coordinate blocks of p by a parent-array union-find over the
    normals' supports: (coordinates, facet indices, subsystem), ordered by
    first coordinate."""
    parent = list(range(p.dim))

    def root(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    supports = [[c for c, x in enumerate(f.normal) if x] for f in p.facets]
    for support in supports:
        for c in support[1:]:
            parent[root(c)] = root(support[0])
    coords = {}
    for c in range(p.dim):
        coords.setdefault(root(c), []).append(c)
    members = {r: [] for r in coords}
    for i, support in enumerate(supports):
        members[root(support[0])].append(i)
    blocks = []
    for r, cs in coords.items():
        facets = tuple(polytope_module.Facet(tuple(p.facets[i].normal[c] for c in cs),
                                             p.facets[i].offset) for i in members[r])
        blocks.append((tuple(cs), tuple(members[r]), polytope_module._unvalidated(len(cs), facets)))
    return blocks


def blocks_and_distinct(p):
    """_blocks(p) read through its layout as (coordinates, facet indices,
    subsystem) tuples, like union_find_blocks, and its distinct subsystems."""
    layout, distinct = polytope_module._blocks(p)
    return [(tuple(cs), tuple(fs), distinct[k]) for cs, fs, k in layout], distinct


def with_untouched_coordinate(p, c):
    """p times a line: a zero entry inserted at coordinate c of every normal."""
    facets = tuple(polytope_module.Facet(f.normal[:c] + (0,) + f.normal[c:], f.offset)
                   for f in p.facets)
    return polytope_module._unvalidated(p.dim + 1, facets)


def repeated_factor_products(rng):
    """Products in canonical order whose blocks repeat: q x q for a random
    factor q, and q x q' with q' the same normals at other offsets, whose
    blocks must not share a vertex scan."""
    q = _vertex_test_polytope(rng, rng.randint(1, 2))
    moved = translate(q, tuple(F(rng.randint(1, 4), 3) for _ in range(q.dim)))
    return [product(q, q).canonical_form(), product(q, moved).canonical_form()]


def test_split_matches_flat_scans_on_shuffled_products():
    rng, lines, repeats = random.Random(2011), random.Random(2012), random.Random(2013)
    seen = {"unbounded": 0, "degenerate": 0, "indecomposable": 0, "several blocks": 0,
            "untouched coordinate": 0, "repeated block": 0,
            "equal normals at other offsets": 0}
    for case in range(300):
        p = _random_shuffled_product(rng)
        cases = [p]
        if case % 3 == 0:
            cases.append(with_untouched_coordinate(p, lines.randint(0, p.dim)))
        if case % 10 == 0:
            cases += repeated_factor_products(repeats)
        for p in cases:
            verts = p.vertices()
            flat = flat_vertices(p)
            assert verts == flat, p.facets
            assert p.is_compact() == flat_is_compact(p) == ray_scan_is_compact(p), p.facets
            assert p.is_delzant() == _delzant_at(p, [v.active for v in flat]), p.facets
            blocks, distinct = blocks_and_distinct(p)
            assert blocks == union_find_blocks(p), p.facets
            subsystems = [block for _, _, block in blocks]
            # each subsystem once, in first-seen order
            assert distinct == [q for i, q in enumerate(subsystems) if q not in subsystems[:i]]
            seen["unbounded"] += not p.is_compact()
            seen["degenerate"] += any(len(v.active) > p.dim for v in verts)
            seen["indecomposable"] += len(blocks) == 1
            seen["several blocks"] += len(blocks) > 1
            seen["untouched coordinate"] += any(not facets for _, facets, _ in blocks)
            seen["repeated block"] += len(distinct) < len(blocks)
            seen["equal normals at other offsets"] += len({b.normals for b in distinct}) < len(
                distinct)
    assert all(count >= 20 for count in seen.values()), seen


@pytest.mark.parametrize("p, vertex_scans, compact_scans", [
    (product(cube(3), cp1()).canonical_form(), 1, 1),  # cube x segment: four equal blocks
    (product(hexagon(), hexagon()).canonical_form(), 1, 1),
    (product(cp1(1, 1), cp1(1, 2)).canonical_form(), 2, 2),  # equal normals, other offsets
    (product(hexagon(), translate(hexagon(), (1, 0))).canonical_form(), 2, 2),
    (product(cp1(), cp1()), 1, 1),
    (product(simplex(2), cube(2)).canonical_form(), 2, 2),
])
def test_each_distinct_block_is_scanned_once(monkeypatch, p, vertex_scans, compact_scans):
    """vertices(), is_compact() and is_delzant() scan each distinct block
    once, matched by its restricted facets, offsets included.  The answers
    are the flat scans'."""
    verts = flat_vertices(p)
    flat = verts, flat_is_compact(p), _delzant_at(p, [v.active for v in verts])

    def counted(name):
        calls, original = [], getattr(polytope_module, name)

        def scan(q):
            calls.append(q)
            return original(q)

        monkeypatch.setattr(polytope_module, name, scan)
        return calls

    scans = {name: counted(name) for name in ("_vertex_scan", "_compact_scan")}
    got = []
    for query in (p.vertices, p.is_compact, p.is_delzant):
        for calls in scans.values():
            calls.clear()
        got.append(query())
        assert len(scans["_vertex_scan"]) == (0 if query == p.is_compact else vertex_scans)
        assert len(scans["_compact_scan"]) == (compact_scans if query == p.is_compact else 0)
    assert tuple(got) == flat


def connected_blocks(masks):
    """The connected components of the non-zero masks, two joined when they
    share a bit, found by growing each from its least index: (union of the
    masks, indices in increasing order), ordered by greatest index, the
    index of the mask that closed the block."""
    left = [i for i, mask in enumerate(masks) if mask]
    blocks = []
    while left:
        members, union = {left[0]}, masks[left[0]]
        grown = True
        while grown:
            grown = False
            for i in left:
                if i not in members and masks[i] & union:
                    members.add(i)
                    union |= masks[i]
                    grown = True
        left = [i for i in left if i not in members]
        blocks.append((union, sorted(members)))
    return sorted(blocks, key=lambda b: b[1][-1])


def test_coordinate_blocks_match_connected_components():
    rng = random.Random(3607)
    seen = Counter()
    for _ in range(600):
        k = rng.randint(1, 10)
        masks = []
        for _ in range(rng.randint(0, 14)):
            if rng.random() < 0.2:
                masks.append(0)
            else:
                masks.append(sum(1 << c for c in rng.sample(range(k), min(k, rng.choice((1, 1, 2))))))
        before = polytope_module._coordinate_blocks(masks)
        if rng.random() < 0.4:  # a late mask that bridges blocks found so far
            masks.append(sum(1 << c for c in rng.sample(range(k), rng.randint(1, k))))
        blocks = polytope_module._coordinate_blocks(masks)
        assert blocks == connected_blocks(masks), masks
        seen["zero mask"] += 0 in masks
        seen["several blocks"] += len(blocks) > 1
        seen["late merge"] += len(blocks) < len(before) and masks[-1] != 0
        seen["empty"] += not blocks
    assert all(count >= 20 for count in seen.values()), seen


def test_split_matches_union_find_on_integer_rows(monkeypatch):
    """_split on integer rows (normal, constant) gives union_find_blocks'
    partition of the same normals, as (coordinates, row indices): the
    constant is not read, a coordinate no row touches is a block of its
    own, and a row with no zero entry gives one block with no mask built."""
    rng = random.Random(3617)
    masks_built = []
    original = polytope_module._coordinate_blocks

    def counted(masks):
        masks_built.append(masks)
        return original(masks)

    monkeypatch.setattr(polytope_module, "_coordinate_blocks", counted)
    seen = Counter()
    for _ in range(400):
        dim = rng.randint(0, 5)
        rows = []
        for _ in range(rng.randint(0, 7) if dim else 0):
            support = rng.sample(range(dim), min(dim, rng.choice((1, 1, 2, dim))))
            normal = [rng.choice((-2, -1, 1, 2)) if c in support else 0 for c in range(dim)]
            rows.append((*normal, rng.choice((0, 0, 1, -3, 5))))
        facets = tuple(Facet(row[:-1], F(row[-1])) for row in rows)
        masks_built.clear()
        split = polytope_module._split(dim, rows)
        want = [(list(cs), list(fs)) for cs, fs, _ in union_find_blocks(_unvalidated(dim, facets))]
        assert split == want, (dim, rows)
        zero_free = any(0 not in row for row in rows)
        assert not (zero_free and masks_built)
        if zero_free:
            assert len(split) == 1
        seen["constant 0"] += any(row[-1] == 0 for row in rows)
        seen["zero-free normal"] += any(0 not in row[:-1] for row in rows)
        seen["untouched coordinate"] += any(not fs for _, fs in split)
        seen["several blocks"] += len(split) > 1
        seen["dimension 0"] += dim == 0
        seen["no rows"] += dim > 0 and not rows
    assert all(count >= 20 for count in seen.values()), seen


def test_one_block_is_the_polytope_itself():
    """A polytope that is one block over every coordinate is its own
    subsystem; a split one gets restricted copies."""
    rng = random.Random(3613)
    for n in range(1, 5):
        p = random_polytope(rng, n, n + 3)
        layout, distinct = polytope_module._blocks(p)
        if len(layout) == 1:
            assert distinct[0] is p
            assert layout == [(list(range(n)), list(range(p.d)), 0)]
    for p in (simplex(3), weighted_projective((1, 2, 3))):
        (only,) = polytope_module._blocks(p)[1]
        assert only is p
    layout, distinct = polytope_module._blocks(cube(2))
    assert len(layout) == 2 and distinct == [cp1()] and distinct[0] is not cube(2)


@st.composite
def shuffled_products(draw):
    """1-3 factors of at most 4 coordinates each, at most 12 facets in all."""
    factors, budget = [], 12
    for _ in range(draw(st.integers(1, 3))):
        if budget < 1:
            break
        factors.append(draw(vertex_test_polytopes(budget)))
        budget -= factors[-1].d
    dim, d = sum(q.dim for q in factors), sum(q.d for q in factors)
    return shuffled_product(factors, draw(st.permutations(range(d))),
                            draw(st.permutations(range(dim))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shuffled_products())
def test_split_property_matches_flat_scans(p):
    assert p.vertices() == flat_vertices(p)
    assert p.is_compact() == flat_is_compact(p) == ray_scan_is_compact(p)


@pytest.mark.parametrize("p, n_vertices, compact", [
    (Polytope(0, ()), 1, True),
    (polytope(2, [((1, 0), 1), ((-1, 0), 1)]), 0, False),  # a strip
    (product(polytope(2, [((1, 0), 1), ((-1, 0), 1)]), hexagon()), 0, False),
    (product(o_minus_one(), cube(1)), 4, False),
], ids=["point", "strip", "strip x hexagon", "o_minus_one x segment"])
def test_split_edge_cases(p, n_vertices, compact):
    assert p.vertices() == flat_vertices(p)
    assert len(p.vertices()) == n_vertices
    assert p.is_compact() == flat_is_compact(p) == ray_scan_is_compact(p) == compact


def count_calls(monkeypatch, name):
    """A list that grows by one on each call of lattice.<name>."""
    calls = []
    original = getattr(lattice, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(lattice, name, counted)
    return calls


def test_split_solves_each_factor_on_its_own(monkeypatch):
    prod = product(hexagon(), hexagon())
    p = shuffled_product([prod], random.Random(3).sample(range(12), 12), range(4))
    calls = count_calls(monkeypatch, "solve_exact")
    counts = {}
    for name, scan in [("vertices", p.vertices), ("is_compact", p.is_compact),
                       ("flat vertices", lambda: flat_vertices(p)),
                       ("flat is_compact", lambda: flat_is_compact(p))]:
        calls.clear()
        scan()
        counts[name] = len(calls)
    # vertices: C(6, 2) per hexagon, against C(12, 4).  The normals sum to
    # 0, so is_compact stops at the first invertible basis: the second pair
    # of each hexagon, and the 19th of the C(12, 4) shuffled 4-subsets
    assert counts == {"vertices": 30, "is_compact": 4,
                      "flat vertices": 495, "flat is_compact": 19}


def test_delzant_solves_and_checks_each_factor_on_its_own(monkeypatch):
    """is_delzant runs each hexagon's vertex scan, C(6, 2) solves, and
    checks the determinant at each of its 6 vertices."""
    prod = product(hexagon(), hexagon())
    p = shuffled_product([prod], random.Random(3).sample(range(12), 12), range(4))
    solves = count_calls(monkeypatch, "solve_exact")
    dets = count_calls(monkeypatch, "det_exact")
    assert p.is_delzant()
    assert (len(solves), len(dets)) == (30, 12)


# -- Delzant by blocks ------------------------------------------------------------

def flat_delzant(p):
    """Oracle: _delzant_at over the active sets of the product's vertices."""
    return _delzant_at(p, [v.active for v in p.vertices()])


STRIP = polytope(2, [((1, 0), 1), ((-1, 0), 1)])  # rank-deficient: no vertex
# a redundant facet through the corner (-1, -1): three facets meet there
CORNERED_SQUARE = polytope(2, [*cube(2).facets, ((1, 1), 2)])
DELZANT_MODELS = (cp1(), simplex(2), cube(2), hexagon(), o_minus_one(), blowup2_alpha())
NON_UNIMODULAR = (weighted_projective((1, 1, 2)), weighted_projective((1, 2, 3)),
                  polytope(2, [((1, 0), 1), ((-1, 2), 1), ((0, -1), 1)]))


def _delzant_test_factor(rng):
    """A factor drawn to make each verdict common: a Delzant model, a simple
    non-unimodular one, one with a vertex on three facets, the strip, or a
    random _vertex_test_polytope; models are translated by a Fraction."""
    roll = rng.random()
    if roll < 0.45:
        q = rng.choice(DELZANT_MODELS)
    elif roll < 0.6:
        q = rng.choice(NON_UNIMODULAR)
    elif roll < 0.7:
        q = CORNERED_SQUARE
    elif roll < 0.8:
        q = STRIP
    else:
        return _vertex_test_polytope(rng, rng.randint(1, 2))
    return translate(q, tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(q.dim)))


def _delzant_verdict(p):
    verts = p.vertices()
    if not verts:
        return "vacuous"
    if any(len(v.active) != p.dim for v in verts):
        return "non-simple"
    return "true" if flat_delzant(p) else "non-unimodular"


def test_delzant_by_blocks_matches_the_product_vertices():
    rng, lines = random.Random(2020), random.Random(2021)
    seen = {"vacuous": 0, "non-simple": 0, "non-unimodular": 0, "true": 0,
            "untouched coordinate": 0, "vacuous beside a non-Delzant block": 0}
    for case in range(600):
        factors = [_delzant_test_factor(rng) for _ in range(rng.randint(1, 3))]
        dim, d = sum(q.dim for q in factors), sum(q.d for q in factors)
        p = shuffled_product(factors, rng.sample(range(d), d), rng.sample(range(dim), dim))
        if case % 4 == 0:
            p = with_untouched_coordinate(p, lines.randint(0, p.dim))
            seen["untouched coordinate"] += 1
        assert p.is_delzant() == flat_delzant(p), p.facets
        verdict = _delzant_verdict(p)
        seen[verdict] += 1
        seen["vacuous beside a non-Delzant block"] += verdict == "vacuous" and any(
            not flat_delzant(q) and q.vertices() for q in factors)
    assert all(count >= 50 for count in seen.values()), seen


@st.composite
def delzant_test_products(draw):
    """1-3 factors, random or from the models, shuffled, at most 12 facets in
    all, sometimes with an untouched coordinate."""
    models = st.sampled_from((*DELZANT_MODELS, *NON_UNIMODULAR, CORNERED_SQUARE, STRIP))
    factors, budget = [], 12
    for _ in range(draw(st.integers(1, 3))):
        if budget < 1:
            break
        q = draw(st.one_of(vertex_test_polytopes(min(budget, 6)), models))
        if q.d <= budget:
            factors.append(q)
            budget -= q.d
    factors = factors or [STRIP]
    dim, d = sum(q.dim for q in factors), sum(q.d for q in factors)
    p = shuffled_product(factors, draw(st.permutations(range(d))),
                         draw(st.permutations(range(dim))))
    if draw(st.booleans()):
        p = with_untouched_coordinate(p, draw(st.integers(0, p.dim)))
    return p


@settings(max_examples=80, deadline=None, derandomize=True)
@given(delzant_test_products())
def test_delzant_property_matches_the_product_vertices(p):
    assert p.is_delzant() == flat_delzant(p)


@pytest.mark.parametrize("p, delzant", [
    (Polytope(0, ()), True),
    (STRIP, True),
    (product(STRIP, weighted_projective((1, 1, 2))), True),
    (with_untouched_coordinate(CORNERED_SQUARE, 1), True),
    (product(hexagon(), weighted_projective((1, 1, 2))), False),
    (product(CORNERED_SQUARE, cp1()), False),
    (product(o_minus_one(), hexagon()), True),
], ids=["point", "strip", "strip x wp112", "cornered square x line", "hexagon x wp112",
        "cornered square x segment", "o_minus_one x hexagon"])
def test_delzant_edge_cases(p, delzant):
    assert p.is_delzant() == flat_delzant(p) == delzant


# -- predicates ---------------------------------------------------------------

def test_delzant_examples():
    assert simplex(4).is_delzant()
    assert not weighted_projective((1, 1, 2)).is_delzant()
    assert hexagon().is_delzant()


def test_flag_examples():
    hexa = hexagon()
    assert hexa.is_even() and hexa.is_symmetric() and equidistant_point(hexa) == ((0, 0), 1)
    s2 = simplex(2)
    assert not s2.is_even() and not s2.is_symmetric() and equidistant_point(s2) == ((0, 0), 1)
    assert equidistant_point(blowup2_alpha()) is None


def test_compactness():
    assert simplex(3).is_compact()
    assert cube(2).is_compact()
    assert not o_minus_one().is_compact()
    # a strip: bounded in x1 only
    strip = polytope(2, [((1, 0), 1), ((-1, 0), 1)])
    assert not strip.is_compact()


COMPACTNESS_KINDS = ("random", "repeated normals", "one-sided", "rank < n", "sum zero",
                     "untouched coordinate")


def _random_normal(rng, n, span):
    while True:
        vec = tuple(rng.randint(-span, span) for _ in range(n))
        if any(vec):
            g = lattice.vec_gcd(vec)
            return tuple(x // g for x in vec)


def _compactness_case(rng, kind):
    """(p, ray): a facet system of dimension 1-5 whose normals are drawn for
    `kind`, and a non-zero direction that pairs >= 0 with every normal
    when the construction gives one (p is then unbounded), else None.

    one-sided: every normal turned to pair >= 0 with a random ray.  rank <
    n: the normals projected onto the hyperplane orthogonal to a random
    ray.  sum zero: the normals closed by their negated sum, or taken with
    their negatives.  untouched coordinate: a zero entry inserted at
    coordinate c, whose unit vector is the ray.  Offsets are 1, 3/2, 2, ...
    per repeat of a normal, so the origin is interior."""
    while True:
        n = rng.randint(2 if kind == "untouched coordinate" else 1, 5)
        m = n - 1 if kind == "untouched coordinate" else n
        span = rng.choice((1, 2, 3))
        normals = [_random_normal(rng, m, span) for _ in range(rng.randint(m, m + 3))]
        ray = None
        if kind == "repeated normals":
            normals += rng.choices(normals, k=rng.randint(1, 2))
        elif kind == "one-sided":
            ray = _random_normal(rng, n, 2)
            normals = [nu if lattice.dot(nu, ray) >= 0 else lattice.neg(nu) for nu in normals]
        elif kind == "rank < n":
            ray = _random_normal(rng, n, 2)
            zz = lattice.dot(ray, ray)
            normals = [tuple(zz * a - lattice.dot(nu, ray) * b for a, b in zip(nu, ray))
                       for nu in normals]
            normals = [tuple(x // lattice.vec_gcd(nu) for x in nu) for nu in normals if any(nu)]
        elif kind == "sum zero" and rng.random() < 0.5:
            normals = normals[:(len(normals) + 1) // 2]
            normals += [lattice.neg(nu) for nu in normals]
        elif kind == "sum zero":
            closing = lattice.neg(tuple(map(sum, zip(*normals))))
            if not any(closing) or not lattice.is_primitive(closing):
                continue
            normals.append(closing)
        elif kind == "untouched coordinate":
            c = rng.randint(0, m)
            normals = [nu[:c] + (0,) + nu[c:] for nu in normals]
            ray = tuple(int(i == c) for i in range(n))
        if len(normals) < n:
            continue
        repeats = Counter()
        facets = []
        for nu in normals:
            facets.append((nu, 1 + F(repeats[nu], 2)))
            repeats[nu] += 1
        return polytope(n, facets), ray


def test_cone_test_matches_the_ray_scan():
    rng = random.Random(2023)
    seen = dict.fromkeys(("repeated normals", "one-sided", "rank < n", "untouched coordinate",
                          "sum zero", "compact", "not compact"), 0)
    for case in range(5000):
        kind = COMPACTNESS_KINDS[case % len(COMPACTNESS_KINDS)]
        p, ray = _compactness_case(rng, kind)
        compact = p.is_compact()
        assert compact == flat_is_compact(p) == ray_scan_is_compact(p), p.facets
        normals = p.normals
        full_rank = lattice.rank_exact(normals) == p.dim
        if ray is not None:
            assert all(lattice.dot(nu, ray) >= 0 for nu in normals) and not compact, p.facets
        if not any(map(sum, zip(*normals))):
            # sum(1 * nu_i) = 0 already: compact exactly when of full rank
            assert compact == full_rank, p.facets
            seen["sum zero"] += 1
        seen["repeated normals"] += len(set(normals)) < p.d
        seen["one-sided"] += kind == "one-sided"
        seen["rank < n"] += not full_rank
        seen["untouched coordinate"] += any(not any(col) for col in zip(*normals))
        seen["compact" if compact else "not compact"] += 1
    assert all(count >= 300 for count in seen.values()), seen


def lp_bounded(p):
    """Oracle: sympy's exact simplex.  p is bounded iff lpmin and lpmax of
    every coordinate over p are finite.  A finite optimum counts only at a
    point of p, and the rows are tried in both orders, as in lp_feasible."""
    from sympy import Rational, S, symbols
    from sympy.solvers.simplex import UnboundedLPError, lpmax, lpmin

    xs = symbols(f"x0:{p.dim}")
    rows = [sum(c * x for c, x in zip(f.normal, xs)) + Rational(f.offset) >= 0
            for f in p.facets]
    for x in xs:
        for optimum in (lpmin, lpmax):
            for order in (rows, rows[::-1]):
                try:
                    _, point = optimum(x, order)
                except UnboundedLPError:
                    return False
                if all(row.subs(point) is S.true for row in rows):
                    break
            else:
                raise AssertionError(f"{optimum.__name__} gave no point of p: {p.facets}")
    return True


def test_cone_test_matches_lp_boundedness():
    rng = random.Random(2024)
    answers = []
    for case in range(102):
        p, _ = _compactness_case(rng, COMPACTNESS_KINDS[case % len(COMPACTNESS_KINDS)])
        compact = p.is_compact()
        assert compact is lp_bounded(p), p.facets
        answers.append(compact)
    assert answers.count(True) >= 15 and answers.count(False) >= 15, answers


# -- feasibility ---------------------------------------------------------------

def _fraction_normalize(coeffs, const, strict):
    row = [F(x) for x in (*coeffs, const)]
    denom = 1
    for x in row:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [x.numerator * (denom // x.denominator) for x in row]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints[:-1]), ints[-1], strict


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
    rows; the system is feasible iff that maximum exists and is positive.

    A positive maximum counts only at a point that satisfies every row.
    sympy 1.14's lpmax has returned t = 1 at a point breaking two rows of a
    5-variable system whose true maximum is -234/313, and solved the same
    rows correctly in reverse order; so they are tried in both orders.
    """
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
    for order in (rows, rows[::-1]):
        try:
            value, point = lpmax(t, order)
        except InfeasibleLPError:
            return False
        if value <= 0:
            return False
        if all(row.subs(point) is S.true for row in rows):
            return True
    raise AssertionError(f"lpmax gave no valid optimum in either row order: {constraints}")


def strict_rows(constraints):
    """feasible's input for constraints that are all strict: the rows
    (coeffs, const) scaled to integers."""
    assert all(strict for _, _, strict in constraints)
    return lattice.integer_rows([(*c, b) for c, b, _ in constraints])


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
    # infeasible; a Fourier-Motzkin elimination that combines Chernikov's
    # rule with keeping only the tightest of parallel rows wrongly returns True
    ([((2, -1, 0, 1), 2, False), ((1, 0, -1, 0), F(-1, 2), False), ((0, 1, 0, 1), -3, True),
      ((-2, 1, 0, -1), -2, False), ((0, 0, -1, 0), F(-1, 2), False),
      ((0, 0, 0, -2), -3, False), ((-2, 1, 2, 0), F(5, 2), False), ((-1, 1, 0, 0), 4, True),
      ((2, -1, -1, -2), 2, False), ((-1, 1, 0, 0), 2, False),
      ((-1, -2, -1, 0), F(5, 2), False)], 4, False),
    # the all-strict forms of x = -1/2 and of the Chernikov system
    ([((1,), F(1, 2), True), ((-1,), F(-1, 2), True)], 1, False),
    ([((2, -1, 0, 1), 2, True), ((1, 0, -1, 0), F(-1, 2), True), ((0, 1, 0, 1), -3, True),
      ((-2, 1, 0, -1), -2, True), ((0, 0, -1, 0), F(-1, 2), True),
      ((0, 0, 0, -2), -3, True), ((-2, 1, 2, 0), F(5, 2), True), ((-1, 1, 0, 0), 4, True),
      ((2, -1, -1, -2), 2, True), ((-1, 1, 0, 0), 2, True),
      ((-1, -2, -1, 0), F(5, 2), True)], 4, False),
    # feasible reads the rows left in x_0 as bounds
    ([((), 1, True), ((), -1, True)], 0, False),
    ([], 1, True),
    ([((1,), -5, True), ((3,), 1, True), ((2,), -7, True)], 1, True),  # only lower bounds
    ([((-1,), -5, True), ((-3,), 1, True), ((-2,), F(-7, 3), True)], 1, True),  # only upper
    ([((2,), -1, True), ((-4,), 2, True)], 1, False),  # 1/2 < x < 1/2
    ([((3,), -1, True), ((-6,), 2, True), ((5,), -1, True)], 1, False),  # 1/3 < x < 1/3
    ([((3,), -1, True), ((5,), -1, True), ((-6,), 3, True), ((-4,), 3, True)], 1, True),
    ([((1,), 1, True), ((-1,), 1, True), ((0,), 0, True)], 1, False),  # |x| < 1 and 0 > 0
    ([((1,), 1, True), ((-1,), 1, True), ((0,), -2, True)], 1, False),
    ([((1, 1), 0, True), ((1, -1), 0, True), ((-1, 0), 1, True)], 2, True),  # |y| < x < 1
    ([((1, 1), 0, True), ((1, -1), 0, True), ((-1, 0), 0, True)], 2, False),  # |y| < x < 0
    # y > 0 and y < 0 leave the constant row 0 > 0 beside the bounds 0 < x < 1
    ([((0, 1), 0, True), ((0, -1), 0, True), ((1, 0), 0, True), ((-1, 0), 1, True)], 2, False),
])
def test_feasible_edge_cases(constraints, nvars, expected):
    """The oracles on every system; feasible, which asks only for a strict
    solution, on the systems whose constraints are all strict."""
    assert fraction_fm_feasible(constraints, nvars) is expected
    assert lp_feasible(constraints, nvars) is expected
    if all(strict for _, _, strict in constraints):
        assert feasible(strict_rows(constraints), nvars) is expected


def test_feasible_matches_fraction_fm_and_lpmax():
    rng = random.Random(8086)
    answers = []
    for case in range(2000):
        nvars = rng.randint(0, 4)
        system = [(c, b, True) for c, b, _ in _random_system(rng, nvars)]
        got = feasible(strict_rows(system), nvars)
        assert got is fraction_fm_feasible(system, nvars), system
        if case % 80 == 0:  # lpmax takes about 45 ms a system
            assert got is lp_feasible(system, nvars), system
            answers.append(got)
    assert True in answers and False in answers


def _rows_left_in_x0(monkeypatch, rows, nvars):
    """How many rows feasible reads as bounds on x_0: the rows of its last
    _tightest with x_1 eliminated, for nvars 2 or 3."""
    tightened, tightest = [], polytope_module._tightest

    def recording_tightest(cons):
        tightened.append(tightest(cons))
        return tightened[-1]

    with monkeypatch.context() as patch:
        patch.setattr(polytope_module, "_tightest", recording_tightest)
        feasible(rows, nvars)
    last = tightened[-1]
    pos, negs = (sum(1 for r in last if sign * r[1] > 0) for sign in (1, -1))
    return sum(1 for r in last if r[1] == 0) + pos * negs


def _bound_system(rng, nvars):
    """Strict rows around a random centre x: each row is > 0 at x by a
    margin from 1/4 to 2, or is -1/4 there: one row in twelve in 2
    variables, one in four in 3, so that both answers are common."""
    x = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(nvars)]
    rows = []
    for _ in range(rng.randint(10, 14) if nvars == 2 else rng.randint(7, 9)):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(nvars))
        below = rng.random() < (1 / 12 if nvars == 2 else 1 / 4)
        margin = F(-1, 4) if below else rng.choice((F(1, 4), F(1, 2), F(1), F(2)))
        rows.append((coeffs, margin - sum(c * v for c, v in zip(coeffs, x)), True))
    return rows


def test_feasible_bounds_on_x0_match_fraction_fm_and_lpmax(monkeypatch):
    """2- and 3-variable systems that leave at least 20 rows in x_0, each
    against fraction_fm_feasible, and every tenth against lpmax."""
    rng = random.Random(1127)
    answers = Counter()
    for case in range(600):
        nvars = (2, 3)[case % 2]
        system = _bound_system(rng, nvars)
        rows = strict_rows(system)
        if _rows_left_in_x0(monkeypatch, rows, nvars) < 20:
            continue
        got = feasible(rows, nvars)
        assert got is fraction_fm_feasible(system, nvars), system
        if sum(answers.values()) % 10 == 0:
            assert got is lp_feasible(system, nvars), system
        answers[nvars, got] += 1
    assert min(answers[key] for key in ((2, True), (2, False), (3, True), (3, False))) >= 30, answers


def _validation_case(rng, kind):
    """(dim, facets) built from a random polytope, with some offset <= 0: the
    origin moved to a vertex or outside, or a facet faced by its own
    reverse, moved past it (an empty strip) or onto it (a slab of zero
    width), and the origin then shifted by up to 3/2 per coordinate."""
    while True:
        n = rng.choice((1, 2, 3))
        p = random_polytope(rng, n, rng.randint(n + 1, 6))
        verts = [v.point for v in p.vertices()]
        if verts or kind in ("empty strip", "zero-width slab"):
            break
    facets = list(p.facets)
    if kind == "origin on the boundary":
        return n, shifted(facets, lattice.neg(rng.choice(verts)))
    if kind == "origin outside":
        moved = facets
        while min(f.offset for f in moved) >= 0:
            moved = shifted(facets, tuple(F(rng.randint(-8, 8), rng.randint(1, 3))
                                          for _ in range(n)))
        return n, moved
    f = rng.choice(facets)
    gap = F(rng.randint(1, 6), rng.randint(1, 3)) if kind == "empty strip" else 0
    facets.append(Facet(lattice.neg(f.normal), -f.offset - gap))
    return n, shifted(facets, tuple(F(rng.randint(-3, 3), 2) for _ in range(n)))


def test_validation_matches_lpmax_when_the_origin_is_not_interior(monkeypatch):
    """Polytope accepts a facet system with some offset <= 0, the one case
    where _interior_nonempty scales rational offsets and runs FM, exactly
    when sympy's simplex finds a point strictly inside every facet."""
    rng = random.Random(1729)
    kinds = ("origin on the boundary", "origin outside", "empty strip", "zero-width slab")
    seen = dict.fromkeys((*kinds, "accepted", "rejected"), 0)
    calls = _count_feasible(monkeypatch)
    for case in range(120):
        n, facets = _validation_case(rng, kinds[case % 4])
        calls.clear()
        try:
            Polytope(n, tuple(facets))
        except EmptyInteriorError:
            accepted = False
        else:
            accepted = True
        assert calls == [n], facets
        assert accepted is lp_feasible([(f.normal, f.offset, True) for f in facets], n), facets
        low = min(f.offset for f in facets)
        widths = {f.offset + g.offset for f in facets for g in facets
                  if f.normal == lattice.neg(g.normal)}
        seen["origin on the boundary"] += low == 0
        seen["origin outside"] += low < 0
        seen["empty strip"] += any(w < 0 for w in widths)
        seen["zero-width slab"] += 0 in widths
        seen["accepted" if accepted else "rejected"] += 1
    assert all(count >= 20 for count in seen.values()), seen


def common_rows(facets):
    """The facets as integer rows (normal, D * offset) over one D, the lcm
    of the offsets' denominators: the rows the package hands to pruning."""
    den = lcm(*(F(f.offset).denominator for f in facets))
    return [(*f.normal, int(f.offset * den)) for f in facets]


def own_rows(facets):
    """The facets as integer rows, each scaled by its own lcm (integer_rows)."""
    return [tuple(row) for row in lattice.integer_rows([(*f.normal, f.offset) for f in facets])]


def prune_facets(dim, facets, rows=common_rows):
    """_prune_facet_list on the distinct facets scaled by rows, sorted, with
    the kept rows mapped back to their facets; over common rows the result
    is in canonical order."""
    distinct = list(dict.fromkeys(facets))
    by_row = dict(zip(rows(distinct), distinct))
    return [by_row[row] for row in _prune_facet_list(dim, sorted(by_row))]


def plain_fm_prune(dim, facets):
    """Reference: pruning with no ray witnesses, one Fourier-Motzkin test per
    facet against every facet still kept, in all dim variables; the test is
    fraction_fm_feasible, so no code is shared with feasible."""
    work = sorted(set(facets))
    for f in list(work):
        others = [g for g in work if g != f]
        cons = [(g.normal, g.offset, False) for g in others]
        cons.append((lattice.neg(f.normal), -f.offset, True))
        if not fraction_fm_feasible(cons, dim):
            work = others
    return work


def ray_first_hits(facets):
    """For each facet, the facets its ray from the origin along -normal meets
    first, timed with Fractions; the origin must be interior."""
    hits = []
    for f in facets:
        times = {}
        for g in facets:
            s = lattice.dot(g.normal, f.normal)
            if s > 0:
                times[g] = g.offset / s
        first = min(times.values())
        hits.append([g for g, t in times.items() if t == first])
    return hits


def ray_witnessed(facets):
    """_ray_witnessed on a facet list, as the set of facets it proves."""
    rows = lattice.integer_rows([(*f.normal, f.offset) for f in facets])
    return {facets[i] for i in _ray_witnessed(rows)}


def shifted(facets, x0):
    """The facet list moved by x0, duplicates kept (translate on the raw list)."""
    return list(translate(_unvalidated(len(x0), tuple(facets)), x0).facets)


def _prune_case(rng, origin):
    """A facet list with non-empty interior and the origin interior, on the
    boundary or outside, as origin says.  Some lists gain a facet whose ray
    from the origin runs through a vertex (a tie), a parallel copy of a facet
    at another offset, or an exact duplicate."""
    while True:
        n = rng.choice((1, 2, 3))
        p = random_polytope(rng, n, rng.randint(n + 1, 7))
        verts = [v.point for v in p.vertices()]
        if verts:
            break
    facets = list(p.facets)
    if rng.random() < 0.8:
        v = rng.choice(verts)
        (num,) = lattice.integer_rows([v])
        nu = tuple(-x // lattice.vec_gcd(num) for x in num)
        facets.append(Facet(nu, -lattice.dot(nu, v)))
    if rng.random() < 0.5:
        f = rng.choice(facets)
        facets.append(Facet(f.normal, f.offset * rng.choice((F(1, 2), F(3, 2), 2))))
    if rng.random() < 0.5:
        facets.append(rng.choice(facets))
    if origin == "boundary":
        facets = shifted(facets, lattice.neg(rng.choice(verts)))
    elif origin == "outside":
        moved = facets
        while min(f.offset for f in moved) >= 0:
            moved = shifted(facets, tuple(F(rng.randint(-8, 8), 2) for _ in range(n)))
        facets = moved
    rng.shuffle(facets)
    return n, facets


def test_prune_matches_fraction_fm(monkeypatch):
    """_prune_facet_list keeps exactly the facets of the plain FM loop, and
    of itself over fraction_fm_feasible; the ray witnesses are exactly the
    Fraction-timed rays met first and alone, and are all kept."""
    rng = random.Random(6502)
    seen = dict.fromkeys(("origin interior", "origin on the boundary", "origin outside",
                          "tied rays", "parallel facets", "exact duplicates"), 0)
    cases = []
    for case in range(360):
        n, facets = _prune_case(rng, ("interior", "boundary", "outside")[case % 3])
        got = prune_facets(n, facets)
        assert got == plain_fm_prune(n, facets), facets
        distinct = sorted(set(facets))
        low = min(f.offset for f in facets)
        if low > 0:
            hits = ray_first_hits(distinct)
            witnessed = ray_witnessed(distinct)
            assert witnessed == {h[0] for h in hits if len(h) == 1}, facets
            assert witnessed <= set(got), facets
            seen["tied rays"] += any(len(h) > 1 for h in hits)
        seen["origin interior"] += low > 0
        seen["origin on the boundary"] += low == 0
        seen["origin outside"] += low < 0
        seen["parallel facets"] += len({f.normal for f in distinct}) < len(distinct)
        seen["exact duplicates"] += len(distinct) < len(facets)
        cases.append((n, facets, got))
    assert all(count >= 50 for count in seen.values()), seen
    monkeypatch.setattr(polytope_module, "feasible", lambda rows, nvars: fraction_fm_feasible(
        [(tuple(row[:-1]), row[-1], True) for row in rows], nvars))
    for n, facets, got in cases:
        assert prune_facets(n, facets) == got, facets


# corpus polytopes of dimension at most 2, all offsets > 0
PRUNING_CORPUS = ("cp2_blowup1", "cp2_blowup2_alpha", "hexagon", "hirzebruch2",
                  "nonfano_pentagon", "o_minus_one", "segment", "simplex2", "square", "wp112")


def _pruning_factor(rng):
    """(factor, kinds): a corpus polytope or a random system of dimension at
    most 2, often with a redundant facet added (a looser parallel copy, or
    one tight only at a vertex) or a tighter parallel copy that makes its
    original redundant.  Every offset is still > 0."""
    kinds = set()
    if rng.random() < 0.5:
        q = load_corpus_polytope(rng.choice(PRUNING_CORPUS))
        kinds.add("corpus factor")
    else:
        n = rng.randint(1, 2)
        q = random_polytope(rng, n, rng.randint(n + 1, 4))
    facets = list(q.facets)
    roll = rng.random()
    if roll < 0.3:
        f = rng.choice(facets)
        facets.append(Facet(f.normal, f.offset * rng.choice((F(1, 2), F(3, 2), 2))))
        kinds.add("parallel facets")
    elif roll < 0.6 and (verts := q.vertices()):
        extra = touching_facet(rng, q, rng.choice(verts).active)
        if extra is not None:
            facets.append(extra)
            kinds.add("redundant facet in one block")
    rng.shuffle(facets)
    return _unvalidated(q.dim, tuple(facets)), kinds


def test_prune_splits_products_into_blocks(monkeypatch):
    """On seeded shuffled products of corpus polytopes and random systems,
    _prune_facet_list keeps exactly the plain FM loop's facets, and makes
    the FM calls, in count and in nvars, of each coordinate block pruned
    alone: the ray core runs per block, so a factor translated to put the
    origin on its boundary or outside costs no ray core to the others."""
    rng = random.Random(4409)
    seen = dict.fromkeys(("several blocks", "corpus factor", "parallel facets",
                          "redundant facet in one block", "offsets <= 0 in one factor only",
                          "facets dropped"), 0)
    calls = _count_feasible(monkeypatch)
    for case in range(150):
        factors, kinds = [], set()
        while sum(q.dim for q in factors) < 2 or rng.random() < 0.3:
            q, more = _pruning_factor(rng)
            if sum(f.dim for f in factors) + q.dim > 4 or sum(f.d for f in factors) + q.d > 12:
                break
            factors.append(q)
            kinds |= more
        if case % 2 and len(factors) > 1:
            i = rng.randrange(len(factors))
            verts = factors[i].vertices()
            moved = translate(factors[i], lattice.neg(rng.choice(verts).point)) if verts else None
            while moved is None or min(f.offset for f in moved.facets) > 0:
                moved = translate(factors[i], tuple(F(rng.randint(-8, 8), 2)
                                                    for _ in range(factors[i].dim)))
            factors[i] = moved
            kinds.add("offsets <= 0 in one factor only")
        dim, d = sum(q.dim for q in factors), sum(q.d for q in factors)
        p = shuffled_product(factors, rng.sample(range(d), d), rng.sample(range(dim), dim))
        facets = list(p.facets)
        calls.clear()
        got = prune_facets(dim, facets)
        whole = sorted(calls)
        assert got == plain_fm_prune(dim, facets), facets
        q = _unvalidated(dim, tuple(sorted(set(facets))))
        blocks = union_find_blocks(q)
        # the split pruning makes is the one _blocks makes of the same facets
        assert blocks_and_distinct(q)[0] == blocks
        calls.clear()
        for coords, _, block in blocks:
            prune_facets(len(coords), list(block.facets))
        assert whole == sorted(calls), facets
        seen["several blocks"] += len(blocks) > 1
        seen["facets dropped"] += len(got) < len(set(facets))
        for kind in kinds:
            seen[kind] += 1
    assert all(count >= 20 for count in seen.values()), seen


@st.composite
def prune_systems(draw):
    """(dim, facet list): positive offsets, so the origin is interior, then
    shifted; duplicates and parallel facets may occur, and no facet at all."""
    n = draw(st.integers(1, 3))
    normals = st.tuples(*[st.integers(-2, 2)] * n).filter(any).map(
        lambda v: tuple(x // lattice.vec_gcd(v) for x in v))
    facets = draw(st.lists(st.builds(Facet, normals, st.fractions(F(1, 3), 4, max_denominator=3)),
                           max_size=8))
    shift = draw(st.one_of(st.just((0,) * n),
                           st.tuples(*[st.fractions(-3, 3, max_denominator=2)] * n)))
    return n, shifted(facets, shift)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(prune_systems())
def test_prune_property_matches_the_plain_fm_loop(system):
    n, facets = system
    got = prune_facets(n, facets)
    assert got == plain_fm_prune(n, facets)
    if all(f.offset > 0 for f in facets):
        distinct = sorted(set(facets))
        witnessed = ray_witnessed(distinct)
        assert witnessed == {h[0] for h in ray_first_hits(distinct) if len(h) == 1}
        assert witnessed <= set(got)


def touching_facet(rng, p, active):
    """A facet that holds on p and is tight exactly on the face where the
    facets of active (indices into p.facets) are: a positive combination of
    theirs, made primitive.  None when its normal is parallel to one of p's."""
    lams = {i: rng.randint(1, 3) for i in active}
    vec = tuple(sum(lams[i] * p.facets[i].normal[c] for i in active) for c in range(p.dim))
    g = lattice.vec_gcd(vec)
    nu = tuple(x // g for x in vec)
    if any(f.normal == nu for f in p.facets):
        return None
    return Facet(nu, sum(lams[i] * p.facets[i].offset for i in active) / g)


def _hyperplane_case(rng, case):
    """(dim, facet list, touching) in dimensions 1-4, with at most 9 facets
    in dimension 4; touching holds (facet, "vertex" or "edge") for the added
    facets that are tight on P only at a vertex or only along an edge.
    Some lists gain a parallel copy of a facet.  The origin ends up
    interior, on the boundary or outside."""
    n = (1, 2, 3, 3, 4)[case % 5]
    while True:
        p = random_polytope(rng, n, rng.randint(n + 1, 6 if n == 4 else 7))
        verts = p.vertices()
        if verts:
            break
    v = rng.choice(verts)
    faces = [(v.active, "vertex")] if rng.random() < 0.6 else []
    for w in verts:
        common = v.active & w.active
        if common and lattice.rank_exact([p.facets[i].normal for i in common]) == n - 1:
            faces.append((common, "edge"))  # v and w span an edge
            break
    facets, touching = list(p.facets), []
    for active, kind in faces:
        facet = touching_facet(rng, p, active)
        if facet is not None and len(facets) < 9:
            touching.append((len(facets), kind))
            facets.append(facet)
    if rng.random() < 0.5:
        f = rng.choice(facets)
        facets.append(Facet(f.normal, f.offset * rng.choice((F(1, 2), F(3, 2), 2))))
    origin = ("interior", "boundary", "outside")[case % 3]
    if origin == "boundary":
        facets = shifted(facets, lattice.neg(v.point))
    elif origin == "outside":
        moved = facets
        while min(f.offset for f in moved) >= 0:
            moved = shifted(facets, tuple(F(rng.randint(-8, 8), 2) for _ in range(n)))
        facets = moved
    return n, facets, [(facets[i], kind) for i, kind in touching]


def test_prune_on_the_hyperplane_matches_the_full_space_question(monkeypatch):
    """_prune_facet_list, which asks each redundancy question on the tested
    facet's hyperplane, keeps exactly the facets of plain_fm_prune, which
    asks it in all dim variables.  A facet tight on P only at a vertex or
    only along an edge is redundant: no point of its hyperplane satisfies
    the others strictly."""
    rng = random.Random(1931)
    seen = dict.fromkeys(("origin interior", "origin on the boundary or outside",
                          "parallel facets", "tight at a vertex only",
                          "tight on a 3-polytope along an edge only", "dimension 1",
                          "dimension 4"), 0)
    calls = _count_feasible(monkeypatch)  # only _prune_facet_list calls feasible
    for case in range(250):
        n, facets, touching = _hyperplane_case(rng, case)
        calls.clear()
        got = prune_facets(n, facets)
        assert got == plain_fm_prune(n, facets), facets
        assert set(calls) <= {n - 1}, facets
        assert not {f for f, _ in touching} & set(got), facets
        distinct = set(facets)
        low = min(f.offset for f in facets)
        kinds = {kind for _, kind in touching}
        seen["origin interior"] += low > 0
        seen["origin on the boundary or outside"] += low <= 0
        seen["parallel facets"] += len({f.normal for f in distinct}) < len(distinct)
        seen["tight at a vertex only"] += "vertex" in kinds
        seen["tight on a 3-polytope along an edge only"] += n == 3 and "edge" in kinds
        seen["dimension 1"] += n == 1
        if n == 4:
            assert len(facets) <= 9
            seen["dimension 4"] += 1
    assert all(count >= 20 for count in seen.values()), seen


SQUARE = [Facet((1, 0), F(1)), Facet((-1, 0), F(1)), Facet((0, 1), F(1)), Facet((0, -1), F(1))]


@pytest.mark.parametrize("dim, facets, kept, witnessed", [
    (0, [], [], set()),  # a reduction onto a point
    (2, [], [], set()),
    # the ray along -(1, 1) meets (1,1):2, (1,0):1 and (0,1):1 together at (-1, -1)
    (2, SQUARE + [Facet((1, 1), F(2))], SQUARE, set(SQUARE)),
    (2, SQUARE + [Facet((-1, -1), F(2))], SQUARE, set(SQUARE)),  # the tie sorts first
    (2, SQUARE + [Facet((1, 1), F(3))], SQUARE, set(SQUARE)),
    (2, SQUARE + SQUARE[:2] + [Facet((1, 0), F(2))], SQUARE, set(SQUARE)),
])
def test_prune_edge_cases(dim, facets, kept, witnessed):
    assert prune_facets(dim, facets) == sorted(kept) == plain_fm_prune(dim, facets)
    assert ray_witnessed(sorted(set(facets))) == witnessed


def test_prune_keeps_the_same_facets_however_the_rows_are_scaled(monkeypatch):
    """Rows over one common denominator, rows each scaled by its own lcm
    (integer_rows) and rows each times a random positive integer keep the
    same facets, the Fraction FM loop's, with as many FM calls: on systems
    whose origin is interior, on the boundary or outside (no ray core), with
    parallel facets, exact duplicates and facets tight only at a vertex."""
    rng = random.Random(3571)
    seen = dict.fromkeys(("ray core", "no ray core", "parallel facets", "exact duplicates",
                          "tight at a vertex only"), 0)

    def multiples(facets):
        return [tuple(k * x for x in row)
                for k, row in zip(rng.choices(range(1, 10), k=len(facets)), common_rows(facets))]

    calls = _count_feasible(monkeypatch)
    for case in range(120):
        n, facets, touching = _hyperplane_case(rng, case)
        if rng.random() < 0.5:
            facets.append(rng.choice(facets))
        rng.shuffle(facets)
        counts = []
        for rows in (common_rows, own_rows, multiples):
            calls.clear()
            got = sorted(prune_facets(n, facets, rows))
            assert got == plain_fm_prune(n, facets), (rows.__name__, facets)
            counts.append(len(calls))
        assert len(set(counts)) == 1, (counts, facets)
        distinct = set(facets)
        seen["ray core" if min(f.offset for f in facets) > 0 else "no ray core"] += 1
        seen["parallel facets"] += len({f.normal for f in distinct}) < len(distinct)
        seen["exact duplicates"] += len(distinct) < len(facets)
        seen["tight at a vertex only"] += "vertex" in {kind for _, kind in touching}
    assert all(count >= 20 for count in seen.values()), seen


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


def _count_feasible(monkeypatch, sizes=None):
    """The nvars of every feasible call; with sizes, also each call's row count."""
    calls = []

    def counting_feasible(constraints, nvars):
        calls.append(nvars)
        if sizes is not None:
            sizes.append(len(constraints))
        return feasible(constraints, nvars)

    monkeypatch.setattr(polytope_module, "feasible", counting_feasible)
    return calls


def test_prune_cube_needs_no_fm(monkeypatch):
    calls = _count_feasible(monkeypatch)
    assert prune_redundant(cube(3)) == cube(3).canonical_form()
    assert calls == []


def catalogue_systems():
    """(dim, core, facets): a simplex around the origin, the core, plus
    facets clear of it, shuffled."""
    rng = random.Random(31)
    for n, d in ((3, 10), (3, 12), (4, 9)):
        core = [Facet(tuple(int(i == j) for i in range(n)), F(1)) for j in range(n)]
        core.append(Facet((-1,) * n, F(1)))
        corners = [(-1,) * n] + [tuple(n if i == j else -1 for i in range(n)) for j in range(n)]
        facets = list(core)
        while len(facets) < d:
            vec = tuple(rng.randint(-3, 3) for _ in range(n))
            if not any(vec):
                continue
            nu = tuple(x // lattice.vec_gcd(vec) for x in vec)
            if any(f.normal == nu for f in facets):
                continue
            touch = -min(lattice.dot(nu, v) for v in corners)
            facets.append(Facet(nu, touch + rng.choice((F(1, 2), F(1), F(3, 2), F(2)))))
        rng.shuffle(facets)
        yield n, core, facets


def test_prune_ray_proves_the_simplex_of_a_catalogue_system(monkeypatch):
    """Every simplex facet of a catalogue system is ray-proven, and each
    other facet, implied by that core alone, costs exactly one FM call."""
    for n, core, facets in catalogue_systems():
        assert set(core) <= ray_witnessed(sorted(facets))
        calls = _count_feasible(monkeypatch)
        assert prune_facets(n, facets) == sorted(core)
        assert len(calls) == len(facets) - len(core)
        monkeypatch.undo()


def corner_cut(rng, facets, offset):
    """facets with two parallel facets added on a new normal: one offset
    below where that normal touches the simplex of catalogue_systems, so
    it cuts a corner off, and one 1/4 further out, redundant beside it."""
    n = len(facets[0].normal)
    corners = [(-1,) * n] + [tuple(n if i == j else -1 for i in range(n)) for j in range(n)]
    while True:
        vec = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(vec) and all(f.normal != vec for f in facets) and lattice.vec_gcd(vec) == 1:
            break
    touch = -min(lattice.dot(vec, v) for v in corners)
    return facets + [Facet(vec, touch - offset), Facet(vec, touch - offset + F(1, 4))]


def test_prune_runs_every_core_test_before_any_full_test(monkeypatch):
    """On the catalogue systems, some with corners cut off, _prune_facet_list
    tests every facet the rays leave unproven against the core first; only
    then does it test the survivors, each against the core and the other
    survivors still kept, so at most |core| + |survivors| - 1 rows."""
    rng = random.Random(47)
    full_tests = 0
    for n, _, base in catalogue_systems():
        for cuts in range(4):
            facets = base
            for _ in range(cuts):
                facets = corner_cut(rng, facets, rng.choice((F(1, 4), F(1, 2))))
            work = sorted(set(facets))
            core = ray_witnessed(work)
            sizes = []
            _count_feasible(monkeypatch, sizes)
            got = prune_facets(n, facets)
            monkeypatch.undo()
            assert got == plain_fm_prune(n, facets), facets
            unproven = len(work) - len(core)
            survivors = len(sizes) - unproven
            assert sizes[:unproven] == [len(core)] * unproven, (sizes, len(core))
            assert all(size <= len(core) + survivors - 1 for size in sizes[unproven:]), sizes
            assert survivors >= len(set(got) - core)
            full_tests += survivors
    assert full_tests >= 20


def test_prune_asks_every_question_on_a_hyperplane(monkeypatch):
    """Every FM call _prune_facet_list makes is in the block's dimension - 1
    variables: on the catalogue systems, which are one block, and on a
    square whose origin is not interior.  The square is two 1-dimensional
    blocks; only the x-block has an offset <= 0, so its two facets are
    tested in 0 variables, and the ray core proves the y-block's two."""
    for n, _, facets in catalogue_systems():
        calls = _count_feasible(monkeypatch)
        prune_facets(n, facets)
        assert calls and set(calls) == {n - 1}
        monkeypatch.undo()
    p = translate(cube(2, 2), (3, 0))
    calls = _count_feasible(monkeypatch)
    prune_redundant(p)
    assert calls == [0, 0]


def grid_system(rng, n, d):
    """A facet list shaped like the scaling grid's: distinct primitive
    normals with entries in [-3, 3], offsets 1/2 to 3, the origin interior."""
    facets = []
    while len(facets) < d:
        nu = tuple(rng.randint(-3, 3) for _ in range(n))
        if lattice.vec_gcd(nu) == 1 and all(f.normal != nu for f in facets):
            facets.append(Facet(nu, F(rng.randint(1, 6), 2)))
    return facets


def test_prune_matches_lpmax_facet_by_facet_in_dimension_5():
    """On grid systems in dimension 5, each with a facet implied by two of
    its facets added, a facet is kept exactly when sympy's simplex finds a
    point where the others hold and it fails."""
    rng = random.Random(2011)
    verdicts = []
    for d in (7, 8, 9):
        facets = grid_system(rng, 5, d)
        implied = None
        while implied is None:
            implied = touching_facet(rng, _unvalidated(5, tuple(facets)), rng.sample(range(d), 2))
        facets = sorted([*facets, Facet(implied.normal, implied.offset + rng.choice((0, 1)))])
        kept = prune_facets(5, facets)
        for f in facets:
            below = (lattice.neg(f.normal), -f.offset, True)
            irredundant = lp_feasible([*((g.normal, g.offset, False) for g in facets if g != f),
                                       below], 5)
            assert (f in kept) is irredundant, (facets, f)
            verdicts.append(irredundant)
    assert True in verdicts and False in verdicts


def test_prune_does_not_validate_its_result(monkeypatch):
    p = translate(cube(2, 2), (3, 0))
    calls = _count_feasible(monkeypatch)
    pruned = prune_redundant(p)
    assert len(calls) == 2  # one per facet of the block with an offset <= 0
    assert pruned == Polytope(p.dim, p.canonical_form().facets)


def test_prune_below_dim_facets_keeps_its_error():
    p = polytope(2, [((1, 0), 0), ((1, 0), 1)])  # x >= 0 and x >= -1
    with pytest.raises(PolytopeError, match=r"^1 facets cannot cut out a 2-dimensional polytope$"):
        prune_redundant(p)


def test_prune_empty_interior_error():
    # the slice y -> (y, y + 5) misses the square: y in [-1, 1] and y + 5 <= 1
    with pytest.raises(EmptyInteriorError, match="^cannot prune a system with empty interior$"):
        reduce_polytope(cube(2), section([(1,), (1,)], (0, 5)))


def test_product_is_not_validated_again(monkeypatch):
    left, right = translate(cube(2, 2), (3, 0)), o_minus_one()
    calls = _count_feasible(monkeypatch)
    constructed = []
    monkeypatch.setattr(Polytope, "__post_init__", lambda self: constructed.append(self))
    prod = product(left, right)
    assert calls == [] and constructed == []
    monkeypatch.undo()
    # the unvalidated product passes validation when built afresh
    assert Polytope(prod.dim, prod.facets) == prod


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
    assert translate(q, (3, 0)).canonical_form() is not q


def test_canonical_form_is_not_validated_again(monkeypatch):
    p = polytope(2, [((0, 1), -1), ((1, 0), 5), ((-1, -1), 9)])
    calls = _count_feasible(monkeypatch)
    canon = p.canonical_form()
    assert calls == []
    assert canon.facets == tuple(sorted(p.facets))
    assert Polytope(canon.dim, canon.facets) == canon


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
            assert interior_contains(p, hit[0])

