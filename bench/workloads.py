"""The four workloads: seeded inputs, the timed operations and their checks.

Each workload is a list of items.  An item is one call into momentcert's
public API (`run`), a function that reduces its output to a comparable
value (`digest`), and the label under which the oracle files the value
the output must have.  Inputs are built once per run from the seed; a
pass runs every item once, in order.

What the seed moves.  The cost of the exponential kernels depends on the
combinatorics of the input (parity classes for the invariant, facet
normals and which facets are redundant for pruning, vertex-scan order for
certification).  Drawn at random per seed, a handful of instances spread
the pass cost by up to 3x from seed to seed.  So each workload's
combinatorial content comes from a fixed catalogue (CATALOGUE_SEED), and
the run seed moves what that cost does not depend on, or depends on only
a little: even lifts of normals, offsets, facet order, dilations,
translations, signed coordinate permutations, family parameters and
command order.
"""

from __future__ import annotations

import importlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import oracles
from momentcert.lattice import vec_gcd

CATALOGUE_SEED = 20111
MODULES = (
    "lattice", "polytope", "floer", "reduction", "certificate",
    "documents", "corpus", "probes", "render", "cli", "errors",
)


def load_modules() -> SimpleNamespace:
    """momentcert's modules by name (the package re-exports shadow some)."""
    return SimpleNamespace(**{n: importlib.import_module(f"momentcert.{n}") for n in MODULES})


class Failed(str):
    """The digest of an item whose call raised: the exception, as text."""


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    digest: Callable[[object], object]
    known_fault: bool = False


@dataclass
class Workload:
    items: list[Item]
    # labels -> description of the inputs, for the seed tests
    inputs: dict
    # (warm-up digests) -> (expected digests by label, fault messages)
    oracle: Callable[[dict], tuple[dict, list[str]]]


# -- corpus ------------------------------------------------------------------

def build_corpus(m, seed: int, workdir: Path) -> Workload:
    """Every CLI subcommand on the exported bundled corpus, in seeded order
    (75 commands: an odd count, so the median falls inside one item)."""
    corpus = m.corpus
    export = workdir / "corpus"
    outdir = workdir / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    _cli(m, ["corpus", "export", "-o", str(export)])
    docs = {p.stem: json.loads(p.read_text()) for p in sorted(export.glob("*.json"))}
    polytopes = sorted(n for n, d in docs.items() if "dim" in d)

    hf_table = dict(corpus.HF_CASES)
    tr_table = {"hexagon": 4, "simplex2": 2, "segment": 2}
    expected: dict[str, object] = {}
    commands: list[tuple[str, list[str], Callable]] = []

    def path(name):
        return str(export / f"{name}.json")

    for name in polytopes:
        label = f"info {name}"
        commands.append((label, ["info", path(name)], _info_digest))
        expected[label] = (0, oracles.VERTEX_COUNTS[name])
        argv = ["hf", path(name)] + (["--tr-bound"] if name in tr_table else [])
        label = f"hf {name}"
        commands.append((label, argv, _hf_digest))
        normals = [f["normal"] for f in docs[name]["facets"]]
        value = oracles.closed_form_hf(normals, docs[name]["dim"])
        if name in hf_table and hf_table[name] != value:
            raise RuntimeError(f"pinned hf of {name} disagrees with the closed form")
        expected[label] = (0, value, tr_table.get(name))
    for amb, sec, target in corpus.REDUCTION_CASES:
        label = f"reduce {amb}"
        out = outdir / f"reduced_{amb}.json"
        commands.append((label, ["reduce", path(amb), "--slice", path(sec), "-o", str(out)],
                         _file_digest(out, _reduced_digest)))
        expected[label] = (0, oracles.facets_of_doc(docs[target]))
    for name, bound in corpus.CERTIFICATE_CASES:
        label = f"certify {name}"
        commands.append((label, ["certify", path(name)], _certify_digest))
        expected[label] = (0, bound, True)
    for name, bound in corpus.MONOTONE_CASES:
        label = f"auto-certify {name}"
        commands.append((label, ["auto-certify", path(name)], _certify_digest))
        expected[label] = (0, bound, False)
    probes = [(n, pt, b, False) for n, pt, b in corpus.PROBE_NONE_CASES]
    probes.append(("simplex2", (Fraction(-1, 2), Fraction(0)), 1, True))
    for name, point, bound, found in probes:
        pt = ",".join(str(x) for x in point)
        label = f"probe {name} {pt} {bound}"
        commands.append((label, ["probe", path(name), f"--point={pt}", "--bound", str(bound)],
                         _probe_digest))
        expected[label] = (0, found)
    for name in polytopes:
        if docs[name]["dim"] != 2 or name == "o_minus_one":
            continue  # render draws a polygon only for compact 2D polytopes
        label = f"render {name}"
        out = outdir / f"{name}.svg"
        commands.append((label, ["render", path(name), "-o", str(out)],
                         _file_digest(out, _svg_digest)))
        expected[label] = (0, [oracles.VERTEX_COUNTS[name]])
    out = outdir / "segment_squared.json"
    commands.append(("product segment segment",
                     ["product", path("segment"), path("segment"), "-o", str(out)],
                     _file_digest(out, _reduced_digest)))
    expected["product segment segment"] = (0, oracles.facets_of_doc(docs["square"]))
    commands.append(("corpus run", ["corpus", "run"], _corpus_run_digest))
    expected["corpus run"] = (0, "all 48 checks passed", 0)

    random.Random(seed).shuffle(commands)
    items = [
        Item(label, (lambda argv=argv: _cli(m, argv)), digest)
        for label, argv, digest in commands
    ]
    return Workload(items, {"order": [label for label, _, _ in commands]},
                    lambda warm: (expected, []))


def _cli(m, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = m.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue() + err.getvalue()


def _line_value(text: str, prefix: str):
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].split()[0]
    return None


def _info_digest(out):
    code, text = out
    count = _line_value(text, "vertices: ")
    return code, None if count is None else int(count)


def _hf_digest(out):
    code, text = out
    value = _line_value(text, "hf = ")
    bound = _line_value(text, "torus/real-locus intersection bound: ")
    return (code, None if value is None else int(value), None if bound is None else int(bound))


def _certify_digest(out):
    code, text = out
    bound = _line_value(text, "intersection bound: ")
    return code, None if bound is None else int(bound), "result: VERIFIED" in text


def _probe_digest(out):
    code, text = out
    return code, text.startswith("displaceable:")


def _corpus_run_digest(out):
    code, text = out
    lines = text.strip().splitlines()
    return code, lines[-1] if lines else "", sum(1 for ln in lines if ln.endswith("FAIL"))


def _reduced_digest(code, path: Path):
    return code, oracles.facets_of_doc(json.loads(path.read_text()))


def _svg_digest(code, path: Path):
    return code, oracles.svg_polygons(path.read_text())


def _file_digest(path: Path, read):
    def digest(out):
        code, _ = out
        if code != 0 or not path.exists():
            return code, None
        result = read(code, path)
        path.unlink()
        return result
    return digest


# -- invariant ---------------------------------------------------------------

def random_normal(rng: random.Random, n: int, bound: int = 2) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(n))
        if vec_gcd(v) == 1:
            return v


def invariant_catalogue():
    """(label, dim, normals): parity classes fixed once for every seed.

    Per dimension 3..6: facet counts n+1 .. 2n+1 with 0..2 pairs +-nu
    (pairs cancel in the generator and give nonzero invariants).  The
    extra polytope in dimension 5 makes the item count odd (25), so the
    median and the 90th percentile fall inside one item's samples.
    """
    rng = random.Random(CATALOGUE_SEED)
    out = []
    for n in (3, 4, 5, 6):
        shapes = [(n + 1, 0), (n + 2, 1), (n + 3, 0), (n + 3, 2), (2 * n, 1), (2 * n + 1, 2)]
        if n == 5:
            shapes.append((n + 4, 1))
        for d, pairs in shapes:
            normals: list[tuple[int, ...]] = []
            while len(normals) < d:
                nu = random_normal(rng, n)
                new = [nu, tuple(-x for x in nu)] if len(normals) < 2 * pairs else [nu]
                if any(v in normals for v in new) or len(normals) + len(new) > d:
                    continue
                normals.extend(new)
            out.append((f"n{n}d{d}p{pairs}", n, tuple(normals)))
    return out


def _lift(rng: random.Random, nu, taken) -> tuple[int, ...]:
    """nu + 2w for a random small w: same parity class, new normal."""
    while True:
        lifted = tuple(c + 2 * rng.randint(-1, 1) for c in nu)
        if vec_gcd(lifted) == 1 and lifted not in taken:
            return lifted


def build_invariant(m, seed: int, workdir: Path) -> Workload:
    """The invariant of polytopes of dimension 3..6, as `momentcert hf`
    computes it: hf through the squared polytope P x P (operator dimension
    2n) and, for an even facet count, hf_even on P's own operator."""
    rng = random.Random(seed)
    catalogue = invariant_catalogue()
    items, inputs, normals_of = [], {}, {}
    for label, n, base in catalogue:
        normals: list[tuple[int, ...]] = []
        for nu in base:
            normals.append(_lift(rng, nu, normals))
        facets = [(nu, Fraction(rng.randint(1, 12), rng.randint(1, 4))) for nu in normals]
        rng.shuffle(facets)
        p = m.polytope.polytope(n, facets)
        inputs[label] = facets
        normals_of[label] = normals

        def invariant(p=p):
            return m.floer.hf(p), m.floer.hf_even(p) if p.is_even() else None

        items.append(Item(label, invariant, lambda out: out))
    dims = {label: n for label, n, _ in catalogue}

    def oracle(warm):
        values = {}
        for label, normals in normals_of.items():
            value = oracles.closed_form_hf(normals, dims[label])
            values[label] = (value, value if len(normals) % 2 == 0 else None)
        return values, []

    return Workload(items, inputs, oracle)


# -- certify -----------------------------------------------------------------

CERTIFY_PRODUCTS = (
    ("simplex2", "segment"),
    ("cp2_blowup1", "segment"),
    ("hexagon", "segment"),
    ("simplex2", "simplex2"),
    ("simplex3", "segment"),
    ("cp2_blowup1", "simplex2"),
    ("cube", "segment"),
    ("cp2_blowup1", "cp2_blowup1"),
    ("hexagon", "simplex2"),
    ("hexagon", "segment", "segment"),
    ("hexagon", "square"),
    ("hexagon", "hexagon"),
    ("simplex4", "segment"),
    ("simplex3", "simplex2"),
    ("simplex2", "simplex2", "segment"),
)

# sharp-interval families: open intervals of the parameter that verifies,
# and parameters that must be rejected (endpoints are singular levels)
BLOWUP2_ALPHA = Fraction(1, 4)
BLOWUP2_INTERVAL = (Fraction(0), Fraction(3, 8))
BLOWUP2_REJECT = (Fraction(3, 8), Fraction(1, 2))
PENTAGON_INTERVAL = (Fraction(1), Fraction(2))
PENTAGON_REJECT = (Fraction(1), Fraction(2), Fraction(5, 2))


def singular_level_certificate(m):
    """A reduction at a singular level that verify accepts with bound 4.

    The circle in direction (1,1,-1) fixes the corners of the reduced
    square, where three ambient facets are active; no two of them share
    an image, so the regular-level check misses it.  It must be rejected.
    """
    c, r = m.certificate, m.reduction
    root = c.Reduction(
        c.Product(tuple(c.BaseFact(c.CP1, c.TT, q) for q in (r.cp1(), r.cp1(), r.cp1(2, 2)))),
        r.section([(1, 0), (0, 1), (1, 1)]),
    )
    return c.Certificate(root, c.TT)


# four-digit primes: multiplying every offset by one such factor, far larger
# than the coefficients that arise, leaves each gcd normalization in the
# Fourier-Motzkin kernel as it was, so the kernel's work does not move with
# the seed (random dilations and translations moved single items by 2x)
PRIMES = tuple(p for p in range(1009, 10000, 2) if all(p % q for q in range(3, 100, 2)))


def _dilation(rng: random.Random) -> int:
    return rng.choice(PRIMES)


def _interior_parameters(rng: random.Random, lo: Fraction, hi: Fraction, count: int):
    return [lo + (hi - lo) * Fraction(k, 16) for k in sorted(rng.sample(range(1, 16), count))]


def build_certify(m, seed: int, workdir: Path) -> Workload:
    """auto_certify_monotone then verify on monotone products, plus the
    family certificates inside and outside their intervals."""
    rng = random.Random(seed)
    factors = {name: m.corpus.load_corpus_polytope(name) for name in
               {f for combo in CERTIFY_PRODUCTS for f in combo}}
    items, inputs, expected, products = [], {}, {}, []
    certs: dict[str, object] = {}
    for combo in CERTIFY_PRODUCTS:
        base = factors[combo[0]]
        for name in combo[1:]:
            base = m.polytope.product(base, factors[name])
        n = base.dim
        lam = _dilation(rng)
        facets = [(f.normal, f.offset * lam) for f in base.facets]
        rng.shuffle(facets)
        q = m.polytope.polytope(n, facets)
        label = "x".join(combo)
        inputs[label] = facets
        products.append((label, q, combo))

        def auto(q=q, label=label):
            cert = m.certificate.auto_certify_monotone(q)
            certs[label] = cert
            return cert

        items.append(Item(f"auto {label}", auto,
                          lambda cert, f=facets: oracles.support_values(f, cert.marked_point)))
        items.append(Item(f"verify {label}", (lambda label=label: m.certificate.verify(certs[label])),
                          lambda claim, f=facets: (claim.bound, oracles.support_values(f, claim.marked_point))))
        expected[f"auto {label}"] = frozenset({lam})
        expected[f"verify {label}"] = (2**n, frozenset({lam}))

    def family(label, cert, verdict, known_fault=False):
        items.append(Item(label, (lambda: _verdict(m, cert)), lambda out: out, known_fault))
        expected[label] = verdict

    # 4 + 3 accepted parameters make the item count odd (43)
    for lam in _interior_parameters(rng, *BLOWUP2_INTERVAL, 4):
        family(f"blowup2 lam={lam}", m.corpus.blowup2_certificate(BLOWUP2_ALPHA, lam), 4)
    for lam in _interior_parameters(rng, *PENTAGON_INTERVAL, 3):
        family(f"pentagon lam={lam}", m.corpus.pentagon_certificate(lam), 4)
    for lam in BLOWUP2_REJECT:
        family(f"blowup2 lam={lam}", m.corpus.blowup2_certificate(BLOWUP2_ALPHA, lam), "rejected")
    for lam in PENTAGON_REJECT:
        family(f"pentagon lam={lam}", m.corpus.pentagon_certificate(lam), "rejected")
    family("singular level cp1^3", singular_level_certificate(m), "rejected", known_fault=True)
    inputs["families"] = [it.label for it in items if not it.label.startswith(("auto", "verify"))]

    def oracle(warm):
        faults = []
        for label, q, combo in products:
            want = 1
            for name in combo:
                want *= oracles.VERTEX_COUNTS[name]
            got = len(q.vertices())
            if got != want:
                faults.append(f"{label}: {got} vertices, the factors give {want}")
        return expected, faults

    return Workload(items, inputs, oracle)


def _verdict(m, cert):
    try:
        return m.certificate.verify(cert).bound
    except m.errors.VerificationError:
        return "rejected"


# -- reduce ------------------------------------------------------------------

def reduce_catalogue(m):
    """(label, factor polytopes, B): ambient = product of dilated models,
    section y -> (y, B y) onto the first k coordinates.  B is drawn until
    every facet image is primitive and nonzero."""
    r = m.reduction
    rng = random.Random(CATALOGUE_SEED)
    models = (
        ("c3.c2.p1", lambda: [r.cube(3, 1), r.cube(2, 2), r.cp1(1, 2)], 3),
        ("s2.c2.c2", lambda: [r.simplex(2, 2), r.cube(2, 1), r.cube(2, 3)], 3),
        ("w112.c3.p1", lambda: [r.weighted_projective((1, 1, 2), 2), r.cube(3, 1), r.cp1(2, 1)], 3),
        ("om1.c2.c2", lambda: [r.o_minus_one(1, 2, 2), r.cube(2, 1), r.cube(2, 2)], 3),
        ("s3.s3.p1", lambda: [r.simplex(3, 1), r.simplex(3, 2), r.cp1(1, 3)], 3),
        ("w1112.c2.p1", lambda: [r.weighted_projective((1, 1, 1, 2), 3), r.cube(2, 1), r.cp1(1, 1)], 3),
        ("c2.s2.p1", lambda: [r.cube(2, 1), r.simplex(2, 2), r.cp1(1, 1)], 4),
        ("s3.s2", lambda: [r.simplex(3, 2), r.simplex(2, 1)], 4),
        ("s4.c2", lambda: [r.simplex(4, 3), r.cube(2, 1)], 4),
        ("om1.s2.p1", lambda: [r.o_minus_one(2, 1, 3), r.simplex(2, 1), r.cp1(2, 1)], 4),
    )
    out = []
    for label, make, k in models:
        factors = make()
        ambient = factors[0]
        for f in factors[1:]:
            ambient = m.polytope.product(ambient, f)
        rows = ambient.dim - k
        while True:
            b = [[rng.randint(-1, 1) for _ in range(k)] for _ in range(rows)]
            images = [_image(nu, b, k) for nu in ambient.normals]
            if all(vec_gcd(im) == 1 for im in images):
                break
        out.append((label, ambient, k, b))
    return out


def _image(nu, b, k):
    return tuple(nu[j] + sum(b[i][j] * nu[k + i] for i in range(len(b))) for j in range(k))


def prune_catalogue():
    """(label, dim, facets): a simplex around the origin plus random facets.

    A random facet gets the offset at which it would touch the simplex,
    plus a step from SLACK: five steps in six leave it clear of the
    simplex (redundant), one cuts a corner off.  So most facets are
    redundant, and pruning must still prove each one so.
    """
    rng = random.Random(CATALOGUE_SEED + 1)
    out = []
    for n, d in ((3, 10), (3, 10), (3, 11), (3, 11), (3, 11), (3, 12), (3, 12), (3, 12), (3, 12),
                 (4, 8), (4, 8), (4, 9), (4, 9), (4, 9), (4, 9)):
        core = [tuple(int(i == j) for i in range(n)) for j in range(n)] + [(-1,) * n]
        corners = [(-1,) * n] + [tuple(n if i == j else -1 for i in range(n)) for j in range(n)]
        facets = [(nu, Fraction(1)) for nu in core]
        while len(facets) < d:
            nu = random_normal(rng, n, 3)
            if any(f[0] == nu for f in facets):
                continue
            touch = -min(sum(a * b for a, b in zip(nu, v)) for v in corners)
            facets.append((nu, touch + rng.choice(SLACK)))
        out.append((f"n{n}d{d}.{len(out)}", n, facets))
    return out


SLACK = (Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2))


def build_reduce(m, seed: int, workdir: Path) -> Workload:
    """reduce_polytope along sections that leave redundant facets, and
    prune_redundant on random facet systems; the seed dilates each
    instance by a prime, which keeps its combinatorics and the kernel's
    arithmetic, and shuffles its facets."""
    rng = random.Random(seed)
    items, inputs, cases = [], {}, {}
    for label, ambient, k, b in reduce_catalogue(m):
        lam = _dilation(rng)
        facets = [(f.normal, f.offset * lam) for f in ambient.facets]
        rng.shuffle(facets)
        amb = m.polytope.polytope(ambient.dim, facets)
        rows = [[int(i == j) for j in range(k)] for i in range(k)] + b
        sec = m.reduction.section(rows)
        key = f"reduce {label}"
        inputs[key] = facets
        cases[key] = [(_image(nu, b, k), a) for nu, a in facets]
        items.append(Item(key, (lambda amb=amb, sec=sec: m.reduction.reduce_polytope(amb, sec)),
                          _polytope_digest))
    for label, n, base in prune_catalogue():
        lam = _dilation(rng)
        facets = [(nu, a * lam) for nu, a in base]
        rng.shuffle(facets)
        p = m.polytope.polytope(n, facets)
        key = f"prune {label}"
        inputs[key] = facets
        cases[key] = facets
        items.append(Item(key, (lambda p=p: m.polytope.prune_redundant(p)), _polytope_digest))

    def oracle(warm):
        checked = [(key, facets, warm[key]) for key, facets in cases.items()
                   if not isinstance(warm.get(key), Failed)]
        faults = oracles.lp_check(checked)
        dropped = sum(len(oracles.canonical_facets(facets)) - len(kept) for _, facets, kept in checked)
        if dropped == 0:
            faults.append("no instance dropped a facet")
        return {key: warm.get(key) for key in cases}, faults

    return Workload(items, inputs, oracle)


def _polytope_digest(p):
    return oracles.canonical_facets(p.facets)


_BUILD = {
    "corpus": build_corpus,
    "invariant": build_invariant,
    "certify": build_certify,
    "reduce": build_reduce,
}
WORKLOADS = tuple(_BUILD)


def build(name: str, m, seed: int, workdir: Path) -> Workload:
    return _BUILD[name](m, seed, workdir)
