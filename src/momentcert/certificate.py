"""Machine-checkable non-displaceability certificates.

A certificate is a tree: leaves are axiomatized base facts about model
polytopes (with citations into the literature), inner nodes are cartesian
products and centered reductions.  Verification walks the tree bottom-up,
recomputing every polytope, marked point and intersection bound exactly.

A reduction node is accepted only at a regular level: each facet of the
reduced polytope must come from exactly one ambient facet.  Two ambient
facets nu != nu' with the same image put nu - nu' in the quotiented
subtorus, whose circle then fixes every point over the shared facet, so
the subtorus does not act freely and the reduction step proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from operator import mul

from . import lattice
from .errors import (
    BoundNotIntegralError,
    MarkedPointMismatchError,
    ModelMismatchError,
    NotMonotoneError,
    PolytopeError,
    ReducedPolytopeMismatchError,
    SliceError,
    UnsupportedClaimError,
)
from .lattice import IntVec, RatVec
from .polytope import Polytope, equidistant_point, product
from .reduction import (
    O_MINUS_ONE_NORMALS,
    AffineReduction,
    monotone_weights,
    reduce_with_sources,
    weighted_projective,
    weighted_projective_normals,
)

# claim kinds
TT = "TT"  # torus fiber against its own Hamiltonian images
TR = "TR"  # torus fiber against the real locus

# base fact kinds
CLIFFORD_TORUS = "clifford_torus"
WEIGHTED_PROJECTIVE = "weighted_projective"
CP1 = "cp1"
O_MINUS_ONE = "o_minus_one"

BASE_KINDS = (CLIFFORD_TORUS, WEIGHTED_PROJECTIVE, CP1, O_MINUS_ONE)

CITATIONS = {
    (CLIFFORD_TORUS, TT): (
        "Clifford torus of CP^n: self-intersection bound 2^n "
        "(Biran-Entov-Polterovich; Cho)."
    ),
    (CLIFFORD_TORUS, TR): (
        "Clifford torus against RP^(2k-1) in CP^(2k-1): bound 2^k (Alston)."
    ),
    (WEIGHTED_PROJECTIVE, TT): (
        "Centered fiber of CP(1,m_1,...,m_n): self-intersection bound 2^n "
        "(Woodward; Cho-Poddar)."
    ),
    (CP1, TT): "Equator of the sphere: self-intersection bound 2.",
    (CP1, TR): "Equator against a meridian of the sphere: bound 2.",
    (O_MINUS_ONE, TT): (
        "Central fiber of the line bundle O(-1) over the sphere: bound 4 "
        "(Woodward; Cho)."
    ),
}

PRODUCT_HYPOTHESIS = (
    "Cartesian products preserve non-displaceability of torus fibers and "
    "torus/real-locus pairs (assumed; cf. Woodward, Wehrheim-Woodward)."
)

TR_CAVEAT = (
    "Interpreting the invariant as an intersection bound against the real "
    "locus assumes the Lagrangian Floer pairing is well defined (minimal "
    "Maslov number of the real locus above two, or a framework that "
    "dispenses with it)."
)


@dataclass(frozen=True)
class BaseFact:
    """An axiom leaf: a dilated/translated model with a marked center fiber."""

    kind: str
    claim: str
    instance: Polytope
    weights: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Product:
    children: tuple  # of nodes


@dataclass(frozen=True)
class Reduction:
    child: object
    section: AffineReduction
    target: Polytope | None = None


@dataclass(frozen=True)
class Certificate:
    root: object
    kind: str
    marked_point: RatVec | None = None
    target: Polytope | None = None
    name: str = ""


@dataclass(frozen=True)
class VerifiedClaim:
    polytope: Polytope  # canonical form
    marked_point: RatVec
    kind: str
    bound: int
    citations: tuple[str, ...] = ()
    hypotheses: tuple[str, ...] = ()


def _model_and_bound(fact: BaseFact) -> tuple[tuple[IntVec, ...], int]:
    """The normals of the fact's model, whose offsets are all 1, and its bound.

    The facts are CITATIONS.  The bound is 2^n against the fiber itself and
    2^((n+1)/2) against the real locus, which needs n odd (Alston).
    """
    n = fact.instance.dim
    if n == 0:
        raise ModelMismatchError("every model has positive dimension; the instance has 0")
    if (fact.kind, fact.claim) not in CITATIONS:
        raise UnsupportedClaimError(f"no {fact.claim} fact for base fact kind {fact.kind!r}")
    dim = {CP1: 1, O_MINUS_ONE: 2}.get(fact.kind, n)
    if n != dim:
        raise ModelMismatchError(f"the {fact.kind} model is {dim}-dimensional, not {n}")
    if fact.kind == O_MINUS_ONE:
        normals = O_MINUS_ONE_NORMALS
    else:
        weights = fact.weights if fact.kind == WEIGHTED_PROJECTIVE else (1,) * (n + 1)
        if weights is None or len(weights) != n + 1:
            raise ModelMismatchError(f"weighted model needs {n + 1} weights")
        try:
            normals = weighted_projective_normals(weights)
            if not lattice.is_primitive(normals[-1]):
                raise PolytopeError(f"normal {normals[-1]} is not primitive")
        except (TypeError, ValueError, PolytopeError) as exc:
            raise ModelMismatchError(f"weighted model weights {weights}: {exc}") from None
    if fact.claim == TT:
        return normals, 2**n
    if n % 2 == 0:
        raise UnsupportedClaimError("real-locus bound for the Clifford torus needs odd dimension")
    return normals, 2 ** ((n + 1) // 2)


def _verify_leaf(fact: BaseFact) -> VerifiedClaim:
    """Accept an instance t * model + x0 by its normals and its center, read
    off the model's table.

    Every table is e_1, ..., e_n and then one normal v, with distinct
    normals and all offsets 1, so an instance is a dilated translate of its
    model exactly when it has the table's normals, each once, and some x
    has every facet value equal to t > 0; then x0 = x and the dilation is
    t.  With a_j the offset at e_j and a_v the one at v, the facets e_j
    give x_j = t - a_j, and substituting that into <v, x> + a_v = t leaves
    t (1 - sum v_j) = a_v - sum v_j a_j.  Every table has 1 - sum v_j != 0
    (1 + sum m_j for the weighted ones, -1 for O(-1)), so (x, t) is unique
    and t > 0 is the only test left.  The offsets are read as integers
    A over their lcm D, so t = N / (D s) with N = A_v - sum v_j A_j and
    s = 1 - sum v_j: t > 0 iff N s > 0, and each x_j = (N - A_j s) / (D s)
    is one Fraction.  No solve runs.
    """
    if fact.claim not in (TT, TR):
        raise UnsupportedClaimError(f"unknown claim kind {fact.claim!r}")
    normals, bound = _model_and_bound(fact)
    offset_at = dict(fact.instance.facets)
    if len(offset_at) != len(fact.instance.facets) or offset_at.keys() != set(normals):
        raise ModelMismatchError(
            f"instance is not a dilated translate of the {fact.kind} model"
        )
    den = lcm(*(offset_at[nu].denominator for nu in normals))
    *scaled, a_v = (offset_at[nu].numerator * (den // offset_at[nu].denominator)
                    for nu in normals)
    v = normals[-1]
    s = 1 - sum(v)
    num = a_v - sum(map(mul, v, scaled))
    if num * s <= 0:
        raise MarkedPointMismatchError("base fact instance has no equidistant center")
    return VerifiedClaim(
        polytope=fact.instance.canonical_form(),
        marked_point=tuple(Fraction(num - a * s, den * s) for a in scaled),
        kind=fact.claim,
        bound=bound,
        citations=(CITATIONS[(fact.kind, fact.claim)],),
    )


def _verify_product(node: Product) -> VerifiedClaim:
    if not node.children:
        raise UnsupportedClaimError("empty product node")
    claims = [_verify_node(c) for c in node.children]
    kind = claims[0].kind
    if any(c.kind != kind for c in claims):
        raise UnsupportedClaimError("product factors must share a claim kind")
    poly = claims[0].polytope
    point = claims[0].marked_point
    bound = claims[0].bound
    for c in claims[1:]:
        poly = product(poly, c.polytope)
        point = point + c.marked_point
        bound *= c.bound
    citations = _merge(c.citations for c in claims)
    hypotheses = _merge([c.hypotheses for c in claims] + [(PRODUCT_HYPOTHESIS,)])
    return VerifiedClaim(poly.canonical_form(), point, kind, bound, citations, hypotheses)


def _verify_reduction(node: Reduction) -> VerifiedClaim:
    """Reduce the child's claim along the section.

    The reduced marked point needs no interior test.  Every verified claim
    marks a strictly interior point: a leaf's equidistant value is t > 0, a
    product concatenates interior points, and each reduced facet's value at
    the preimage y equals its ambient facet's value at the child's marked
    point A y + x0, which is positive by induction.
    """
    child = _verify_node(node.child)
    try:
        reduced, sources = reduce_with_sources(child.polytope, node.section)
    except (SliceError, PolytopeError) as exc:
        raise ReducedPolytopeMismatchError(
            f"section does not reduce the child polytope: {type(exc).__name__}: {exc}"
        ) from None
    _check_regular_level(reduced, sources)
    preimage = node.section.preimage(child.marked_point)
    if preimage is None:
        raise MarkedPointMismatchError(
            "slice does not pass through the marked fiber of the child claim"
        )
    _check_target(node.target, reduced, "computed reduction")
    drop = node.section.ambient_dim - node.section.reduced_dim
    denom = 2**drop
    if child.bound % denom != 0:
        raise BoundNotIntegralError(
            f"bound {child.bound} is not divisible by 2^{drop}"
        )
    return replace(
        child,
        polytope=reduced,
        marked_point=preimage,
        bound=child.bound // denom,
    )


def _check_regular_level(reduced: Polytope, sources) -> None:
    """Reject a reduced facet cut out by more than one ambient facet."""
    for f in reduced.facets:
        normals = sources[f]
        if len(normals) > 1:
            nu, other = normals[:2]
            raise ReducedPolytopeMismatchError(
                f"singular level: reduced facet {f.normal}:{f.offset} comes from "
                f"ambient facets {nu} and {other}; the quotiented circle in direction "
                f"{lattice.vsub(nu, other)} fixes every point over it"
            )


def _verify_node(node) -> VerifiedClaim:
    if isinstance(node, BaseFact):
        return _verify_leaf(node)
    if isinstance(node, Product):
        return _verify_product(node)
    if isinstance(node, Reduction):
        return _verify_reduction(node)
    raise UnsupportedClaimError(f"unknown certificate node {type(node).__name__}")


def verify(cert: Certificate) -> VerifiedClaim:
    """Check every node of the certificate and return the verified claim.

    Deterministic and exact; any discrepancy raises a VerificationError
    subclass naming the failing check.
    """
    claim = _verify_node(cert.root)
    if cert.kind != claim.kind:
        raise UnsupportedClaimError(
            f"certificate declares kind {cert.kind}, tree proves {claim.kind}"
        )
    if cert.marked_point is not None and tuple(cert.marked_point) != tuple(claim.marked_point):
        raise MarkedPointMismatchError(
            f"declared marked point {lattice.format_vec(cert.marked_point)} differs "
            f"from computed {lattice.format_vec(claim.marked_point)}"
        )
    _check_target(cert.target, claim.polytope, "final polytope")
    return claim


def auto_certify_monotone(p: Polytope) -> Certificate:
    """Certify the center fiber of a compact monotone Delzant polytope.

    The weight lemma writes one normal as a negative combination of the
    others; the certificate then exhibits p as a reduction of the weighted
    projective model with those weights, dilated to the value t of p's
    equidistant center u, along the section through x0 = -A u.
    """
    canon = p.canonical_form()
    wv = monotone_weights(canon)  # NotMonotoneError, NotCompactError, NotDelzantError
    center = equidistant_point(canon)
    if center is None:
        raise NotMonotoneError("no interior point has every facet value equal")
    u, t = center
    k = wv.pivot
    leaf_weights = (1,) + tuple(m for i, m in enumerate(wv.weights) if i != k)
    ambient = weighted_projective(leaf_weights, t)
    facets = [f for i, f in enumerate(canon.facets) if i != k]
    # <nu_i, u> + a_i = t, so the entry -<nu_i, u> of x0 is a_i - t
    sec = AffineReduction(tuple(nu for nu, _ in facets), tuple(a - t for _, a in facets))
    root = Reduction(BaseFact(WEIGHTED_PROJECTIVE, TT, ambient, weights=leaf_weights), sec)
    return Certificate(root, TT, marked_point=u, target=canon)


def _merge(groups) -> tuple[str, ...]:
    """The items of the groups in first-seen order, each once."""
    return tuple(dict.fromkeys(item for group in groups for item in group))


def _check_target(target: Polytope | None, computed: Polytope, what: str) -> None:
    """Raise when a declared target is given and differs from computed."""
    if target is not None and target.canonical_form() != computed:
        raise ReducedPolytopeMismatchError(
            f"{what} differs from the declared target:\n"
            f"  computed: {_describe(computed)}\n"
            f"  declared: {_describe(target.canonical_form())}"
        )


def _describe(p: Polytope) -> str:
    parts = ", ".join(f"{f.normal}:{f.offset}" for f in p.facets)
    return f"dim {p.dim} [{parts}]"
