import random
from fractions import Fraction as F
from itertools import product as iter_product

import pytest

from conftest import interior_contains, random_polytope
from momentcert import lattice
from momentcert.corpus import PROBE_NONE_CASES, load_corpus_polytope

from momentcert.errors import (
    NotOnFacetError,
    NotTransverseError,
    ProbeError,
    UnboundedProbeError,
)
from momentcert.polytope import polytope, product
from momentcert.probes import Probe, is_displaceable_by_probe, probe_reach, probe_scan
from momentcert.reduction import cube, o_minus_one, simplex


def pentagon():
    return polytope(
        2, [((1, 0), 1), ((0, 1), 1), ((0, -1), 1), ((-1, -3), 3), ((-1, -2), 3)]
    ).canonical_form()


def test_reach_simplex():
    probe = Probe(0, (1, 0), (F(-1), F(0)))
    assert probe_reach(simplex(2), probe) == 2


def test_reach_square_opposite_facet():
    sq = cube(2)
    probe = Probe(0, (1, 0), (F(-1), F(0)))
    assert probe_reach(sq, probe) == 2


def test_reach_blowup2_segment():
    a = F(1, 4)
    p_alpha = polytope(
        2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1), ((1, 1), 1 + a), ((0, -1), 1 - 2 * a)]
    )
    # enter through x2 + 1 = 0 straight up at x1 = 0
    probe = Probe(1, (0, 1), (F(0), F(-1)))
    # exits where -x2 + 1/2 = 0, i.e. after 3/2
    assert probe_reach(p_alpha, probe) == F(3, 2)


def test_reach_errors():
    with pytest.raises(NotTransverseError):
        probe_reach(simplex(2), Probe(0, (2, 0), (F(-1), F(0))))
    with pytest.raises(NotOnFacetError):
        probe_reach(simplex(2), Probe(0, (1, 0), (F(0), F(0))))
    with pytest.raises(NotOnFacetError):
        # on the facet line but outside the relative interior
        probe_reach(simplex(2), Probe(0, (1, 0), (F(-1), F(2))))
    with pytest.raises(UnboundedProbeError):
        probe_reach(o_minus_one(), Probe(0, (1, 0), (F(-1), F(1))))
    for facet in (-1, 3):
        with pytest.raises(ProbeError, match=f"facet index {facet} out of range"):
            probe_reach(simplex(2), Probe(facet, (1, 0), (F(-1), F(0))))


def test_point_errors_write_rationals_as_p_over_q():
    with pytest.raises(NotOnFacetError) as info:
        probe_reach(simplex(2), Probe(0, (1, 0), (F(0), F(1, 2))))
    assert str(info.value) == "base point (0, 1/2) is not on facet 0"
    with pytest.raises(NotOnFacetError) as info:
        probe_reach(simplex(2), Probe(0, (1, 0), (F(-1), F(2))))
    assert str(info.value) == "base point (-1, 2) is not in the relative interior of the facet"
    with pytest.raises(ProbeError) as info:
        probe_scan(simplex(2), (5, F(1, 2)), 1)
    assert str(info.value) == "scan point (5, 1/2) is not interior"


def test_displaceable_half_open_segment():
    probe = Probe(0, (1, 0), (F(-1), F(0)))
    s2 = simplex(2)
    assert is_displaceable_by_probe(s2, (F(-1, 2), F(0)), probe)
    assert not is_displaceable_by_probe(s2, (F(0), F(0)), probe)  # t = reach/2
    assert not is_displaceable_by_probe(s2, (F(1, 2), F(0)), probe)  # past midpoint
    assert not is_displaceable_by_probe(s2, (F(-1), F(0)), probe)  # t = 0
    assert not is_displaceable_by_probe(s2, (F(-1, 2), F(1, 4)), probe)  # off the line


def test_scan_finds_probe_off_center():
    probe = probe_scan(simplex(2), (F(-1, 2), F(0)), 1)
    assert probe is not None
    assert is_displaceable_by_probe(simplex(2), (F(-1, 2), F(0)), probe)


def test_scan_center_of_simplex_is_clean():
    assert probe_scan(simplex(2), (F(0), F(0)), 3) is None


def test_scan_pentagon_marked_fibers_are_clean():
    p = pentagon()
    for lam in (F(5, 4), F(3, 2), F(7, 4)):
        assert probe_scan(p, (lam, F(0)), 3) is None


def test_scan_pentagon_displaceable_point():
    # close to a facet, easily displaced
    p = pentagon()
    assert probe_scan(p, (F(-3, 4), F(0)), 2) is not None


def test_scan_requires_interior_point():
    with pytest.raises(ProbeError):
        probe_scan(simplex(2), (F(-1), F(0)), 2)


def test_scan_deterministic():
    assert probe_scan(simplex(2), (F(-1, 2), F(0)), 2) == probe_scan(
        simplex(2), (F(-1, 2), F(0)), 2
    )


def scan_oracle(p, u, direction_bound):
    """Reference scan: one probe_reach, with its own support values, per
    candidate direction."""
    u = tuple(F(x) for x in u)
    if not interior_contains(p, u):
        raise ProbeError(f"scan point {u} is not interior")
    for f in range(p.d):
        nu = p.facets[f].normal
        t0 = p.support(f, u)
        for w in iter_product(range(-direction_bound, direction_bound + 1), repeat=p.dim):
            if lattice.dot(nu, w) != 1:
                continue
            probe = Probe(f, w, tuple(x - t0 * c for x, c in zip(u, w)))
            try:
                reach = probe_reach(p, probe)
            except (NotOnFacetError, UnboundedProbeError):
                continue
            if 0 < t0 < reach / 2:
                return probe
    return None


@pytest.mark.parametrize("name, point, bound", PROBE_NONE_CASES + (
    ("simplex2", (F(-1, 2), F(0)), 1),
    ("simplex2", (F(-1, 2), F(0)), 3),
    ("nonfano_pentagon", (F(-3, 4), F(0)), 2),
))
def test_scan_matches_oracle_on_corpus_cases(name, point, bound):
    p = load_corpus_polytope(name).canonical_form()
    assert probe_scan(p, point, bound) == scan_oracle(p, point, bound)


def test_scan_matches_oracle_on_random_interior_points():
    rng = random.Random(1105)
    seen = {"probe": 0, "none": 0, "unbounded polytope": 0}
    for _ in range(150):
        n = rng.randint(1, 3)
        p = random_polytope(rng, n, rng.randint(n, n + 3))
        if rng.random() < 0.3:
            p = product(p, rng.choice((cube(1), o_minus_one(), simplex(1))))
        if p.dim > 3:
            continue
        u = tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(p.dim))
        if not interior_contains(p, u):
            u = (F(0),) * p.dim  # offsets are positive, so the origin is interior
        bound = rng.randint(1, 3)
        found = probe_scan(p, u, bound)
        assert found == scan_oracle(p, u, bound), (p.facets, u, bound)
        seen["probe" if found else "none"] += 1
        seen["unbounded polytope"] += not p.is_compact()
    assert all(count >= 10 for count in seen.values()), seen


def test_scan_matches_oracle_on_points_near_the_boundary():
    """Points on the ray from the origin to a random target, halved back
    until interior, lie near the boundary and are displaceable more often:
    the scan finds the oracle's probe, direction bounds 1 to 4, in
    dimensions 2 and 3."""
    rng = random.Random(7703)
    seen = {"probe": 0, "none": 0, "probe n=3": 0, "probe bound 4": 0}
    for _ in range(120):
        n = rng.choice((2, 2, 3))
        p = random_polytope(rng, n, rng.randint(n + 1, n + 4))
        target = tuple(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n))
        # the origin is interior; walk toward the target while staying inside
        t = F(1)
        while not interior_contains(p, tuple(t * x for x in target)):
            t /= 2
        u = tuple(t * x for x in target)
        bound = rng.randint(1, 4 if n == 2 else 3) if rng.random() < 0.8 else 4
        found = probe_scan(p, u, bound)
        assert found == scan_oracle(p, u, bound), (p.facets, u, bound)
        if found:
            seen["probe"] += 1
            seen["probe n=3"] += n == 3
            seen["probe bound 4"] += bound == 4
        else:
            seen["none"] += 1
    assert seen["probe"] >= 50 and min(seen.values()) >= 10, seen


@pytest.mark.parametrize("point, named", [((0.1, 0), "0.1"), ((F(1, 4), -0.25), "-0.25")])
def test_scan_refuses_a_float_point(point, named):
    with pytest.raises(ProbeError, match=f"scan point coordinate {named} is not exact"):
        probe_scan(simplex(2), point, 1)


def test_scan_reads_a_point_in_every_exact_form():
    expected = probe_scan(simplex(2), (F(-1, 2), F(0)), 1)
    assert expected is not None
    for point in ((F(-1, 2), 0), ("-1/2", "0"), ("-0.5", F(0))):
        assert probe_scan(simplex(2), point, 1) == expected
