"""Bundled worked examples and the golden-test runner behind `corpus run`.

Every case ties a bundled data file (or a parametrized family built from
one) to the exact value the construction must reproduce.  Rows come back
as (case, check, expected, computed, ok) so the CLI can print a table and
the test suite can assert on it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from . import certificate as cert_mod
from .certificate import (
    BaseFact,
    Certificate,
    Product,
    Reduction,
    auto_certify_monotone,
    verify,
)
from .documents import (
    certificate_from_doc,
    load_json,
    polytope_from_doc,
    section_from_doc,
)
from .errors import ReducedPolytopeMismatchError
from .floer import boundary_op, hf, hf_even, rank_gf2
from .polytope import Polytope, polytope, product
from .probes import probe_scan
from .reduction import cp1, monotone_weights, o_minus_one, reduce_polytope, section


@dataclass(frozen=True)
class Row:
    case: str
    check: str
    expected: str
    computed: str

    @property
    def ok(self) -> bool:
        return self.expected == self.computed


def data_names() -> tuple[str, ...]:
    root = resources.files("momentcert") / "data"
    return tuple(sorted(p.name for p in root.iterdir() if p.name.endswith(".json")))


def load_doc(name: str) -> dict:
    """The bundled document, read and decoded afresh: a new dict per call,
    so a caller may change it without touching any later load."""
    path = resources.files("momentcert") / "data" / f"{name}.json"
    with resources.as_file(path) as real:
        return load_json(real)


# The three loaders below build each bundled object once per process and
# hand out that one object on every later call.  Sharing is safe: polytopes,
# sections and certificates are frozen dataclasses of tuples, ints and
# Fractions.  A load that raises is not cached, so it raises again.

@functools.cache
def load_corpus_polytope(name: str) -> Polytope:
    return polytope_from_doc(load_doc(name), name)


@functools.cache
def load_corpus_section(name: str):
    return section_from_doc(load_doc(name), name)


@functools.cache
def load_corpus_certificate(name: str) -> Certificate:
    return certificate_from_doc(load_doc(name), name)


HF_CASES = (
    ("segment", 2),
    ("simplex2", 2),
    ("square", 4),
    ("cube", 8),
    ("hexagon", 4),
)

REDUCTION_CASES = (
    ("cube", "hexagon_section", "hexagon"),
    ("simplex3", "cp2_section", "simplex2"),
    ("simplex5", "cp4_section", "simplex4"),
    ("wp1112", "cp2_blowup1_section", "cp2_blowup1"),
    ("cp2_blowup2_ambient", "cp2_blowup2_section", "cp2_blowup2_alpha"),
    ("nonfano_pentagon_ambient", "nonfano_pentagon_section", "nonfano_pentagon"),
    ("hirzebruch2_ambient", "hirzebruch2_section", "hirzebruch2"),
)

CERTIFICATE_CASES = (
    ("hexagon_tr", 4),
    ("cp2_tr", 2),
    ("cp4_tr", 4),
    ("cp2_blowup1_tt", 4),
    ("cp2_blowup2_tt", 4),
    ("nonfano_pentagon_tt", 4),
    ("hirzebruch2_tt", 4),
)

MONOTONE_CASES = (
    ("segment", 2),
    ("simplex2", 4),
    ("simplex3", 8),
    ("simplex4", 16),
    ("simplex5", 32),
    ("square", 4),
    ("cube", 8),
    ("hexagon", 4),
    ("cp2_blowup1", 4),
)

# exact interval checks; both families are also rejected at their endpoints
# (singular levels), which the certificate unit tests cover
BLOWUP2_OK = (Fraction(1, 8), Fraction(1, 4), Fraction(5, 16))
BLOWUP2_BAD = (Fraction(1, 2),)
PENTAGON_OK = (Fraction(5, 4), Fraction(3, 2), Fraction(7, 4))
PENTAGON_BAD = (Fraction(5, 2),)

PROBE_NONE_CASES = (
    ("simplex2", (Fraction(0), Fraction(0)), 3),
    ("hexagon", (Fraction(0), Fraction(0)), 3),
    ("nonfano_pentagon", (Fraction(5, 4), Fraction(0)), 3),
    ("nonfano_pentagon", (Fraction(3, 2), Fraction(0)), 3),
    ("nonfano_pentagon", (Fraction(7, 4), Fraction(0)), 3),
)


def blowup2_certificate(alpha: Fraction, lam: Fraction) -> Certificate:
    """The two-point blow-up family: O(-1) x sphere x sphere, sized by
    (alpha, lam), reduced along x3 = x2 and x4 = x1 + x2."""
    target = polytope(
        2,
        [
            ((1, 0), 1),
            ((0, 1), 1),
            ((-1, -1), 1),
            ((1, 1), 1 + alpha),
            ((0, -1), 1 - 2 * alpha),
        ],
    )
    root = Reduction(
        Product(
            (
                BaseFact(cert_mod.O_MINUS_ONE, cert_mod.TT, o_minus_one(1, 1 + lam, 1 + alpha)),
                BaseFact(cert_mod.CP1, cert_mod.TT, cp1(1, 1 - 2 * alpha)),
                BaseFact(cert_mod.CP1, cert_mod.TT, cp1(1 + 4 * alpha - 2 * lam, 1)),
            )
        ),
        section([(1, 0), (0, 1), (0, 1), (1, 1)]),
    )
    return Certificate(root, cert_mod.TT, marked_point=(lam - alpha, -alpha), target=target)


def pentagon_certificate(lam: Fraction) -> Certificate:
    """The non-Fano pentagon family: CP(1,1,2) x sphere x O(-1), sized by
    lam, reduced along x3 = x2, x4 = -x1 - 2 x2, x5 = -x2."""
    target = load_corpus_polytope("nonfano_pentagon")
    wp = polytope(2, [((1, 0), 1), ((0, 1), 1 + lam), ((-1, -2), 1 + 2 * lam)])
    root = Reduction(
        Product(
            (
                BaseFact(cert_mod.WEIGHTED_PROJECTIVE, cert_mod.TT, wp, weights=(1, 1, 2)),
                BaseFact(cert_mod.CP1, cert_mod.TT, cp1(1, 1)),
                BaseFact(cert_mod.O_MINUS_ONE, cert_mod.TT, o_minus_one(3, 3 - lam, 3)),
            )
        ),
        section([(1, 0), (0, 1), (0, 1), (-1, -2), (0, -1)]),
    )
    return Certificate(root, cert_mod.TT, marked_point=(lam, Fraction(0)), target=target)


def _family_row(case: str, cert: Certificate, expected: str) -> Row:
    """A family check: the verified bound, or 'mismatch' when the reduced
    polytope differs from the family's target."""
    try:
        computed = f"bound {verify(cert).bound}"
    except ReducedPolytopeMismatchError:
        computed = "mismatch"
    return Row(case, "family", expected, computed)


def run() -> list[Row]:
    """Execute every bundled golden case and report expected vs computed."""
    rows: list[Row] = []

    for name, expected in HF_CASES:
        p = load_corpus_polytope(name)
        rows.append(Row(name, "hf", str(expected), str(hf(p))))
    s2 = load_corpus_polytope("simplex2")
    rank, nullity = rank_gf2(boundary_op(product(s2, s2)))
    rows.append(Row("simplex2 squared", "nullity,rank", "10,6", f"{nullity},{rank}"))
    rows.append(Row("simplex2 squared", "hf_even", "4", str(hf_even(product(s2, s2)))))

    for amb_name, sec_name, target_name in REDUCTION_CASES:
        amb = load_corpus_polytope(amb_name)
        sec = load_corpus_section(sec_name)
        target = load_corpus_polytope(target_name).canonical_form()
        got = reduce_polytope(amb, sec)
        rows.append(
            Row(f"{amb_name} -> {target_name}", "reduce", "target", "target" if got == target else "different")
        )

    blow = load_corpus_polytope("cp2_blowup1")
    wv = monotone_weights(blow)
    canon = blow.canonical_form()
    identity = tuple(
        sum(m * nu[i] for m, nu in zip(wv.weights, canon.normals)) for i in range(canon.dim)
    )
    rows.append(
        Row(
            "cp2_blowup1",
            "weights",
            "(2, 1, 1, 1) pivot 3 sum 0",
            f"{wv.weights} pivot {wv.pivot} sum {'0' if all(x == 0 for x in identity) else identity}",
        )
    )

    for name, expected in CERTIFICATE_CASES:
        claim = verify(load_corpus_certificate(name))
        rows.append(Row(name, "certify", f"bound {expected}", f"bound {claim.bound}"))

    for name, expected in MONOTONE_CASES:
        p = load_corpus_polytope(name)
        claim = verify(auto_certify_monotone(p))
        rows.append(Row(name, "auto-certify", f"bound {expected}", f"bound {claim.bound}"))

    alpha = Fraction(1, 4)
    for lams, expected in ((BLOWUP2_OK, "bound 4"), (BLOWUP2_BAD, "mismatch")):
        for lam in lams:
            rows.append(_family_row(f"blowup2 lam={lam}", blowup2_certificate(alpha, lam), expected))
    for lams, expected in ((PENTAGON_OK, "bound 4"), (PENTAGON_BAD, "mismatch")):
        for lam in lams:
            rows.append(_family_row(f"pentagon lam={lam}", pentagon_certificate(lam), expected))

    for name, point, bound in PROBE_NONE_CASES:
        p = load_corpus_polytope(name).canonical_form()
        found = probe_scan(p, point, bound)
        label = ",".join(str(x) for x in point)
        rows.append(
            Row(f"{name} ({label})", f"probe<= {bound}", "none", "none" if found is None else "probe")
        )
    s2c = load_corpus_polytope("simplex2").canonical_form()
    found = probe_scan(s2c, (Fraction(-1, 2), Fraction(0)), 1)
    rows.append(Row("simplex2 (-1/2,0)", "probe<= 1", "probe", "none" if found is None else "probe"))

    for name, expected in (("hexagon", 4), ("simplex2", 2), ("segment", 2)):
        bound = hf(load_corpus_polytope(name))
        rows.append(Row(name, "hf-tr-bound", str(expected), str(bound)))

    return rows
