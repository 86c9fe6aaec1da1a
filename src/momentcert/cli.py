"""Command-line front end.

Exit codes: 0 success, 1 verification or computation failure, 2 malformed
input.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import corpus as corpus_mod
from .certificate import auto_certify_monotone, hf_lower_bound_tr, verify
from .documents import (
    certificate_to_doc,
    load_certificate,
    load_json,
    load_polytope,
    load_section,
    marked_points_from_doc,
    polytope_from_doc,
    polytope_to_doc,
    rational_to_json,
    save_json,
)
from .errors import DocumentError, MomentcertError, VerificationError
from .floer import DIMENSION_LIMIT, hf
from .polytope import equidistant_point, product
from .probes import probe_reach, probe_scan
from .reduction import reduce_polytope
from .render import render_svg

GREEN = "\x1b[32m"
RED = "\x1b[31m"
RESET = "\x1b[0m"


def _fmt(x: Fraction) -> str:
    return str(rational_to_json(x))


def _fmt_point(pt) -> str:
    return "(" + ", ".join(_fmt(x) for x in pt) + ")"


def _print_polytope(p) -> None:
    for nu, a in p.facets:
        terms = " ".join(f"{c:+d} x{i + 1}" for i, c in enumerate(nu) if c != 0)
        print(f"  {terms} {'+' if a >= 0 else '-'} {_fmt(abs(a))} >= 0")


def _cmd_info(args) -> int:
    doc = load_json(args.file)
    p = polytope_from_doc(doc, str(args.file))
    name = doc.get("name", Path(args.file).stem)
    print(f"name: {name}")
    print(f"dimension: {p.dim}")
    print(f"facets: {p.d}")
    _print_polytope(p)
    print(f"compact: {p.is_compact()}")
    print(f"delzant: {p.is_delzant()}")
    print(f"even: {p.is_even()}")
    print(f"symmetric: {p.is_symmetric()}")
    lam = p.is_monotone()
    print(f"monotone: {_fmt(lam) if lam is not None else 'no'}")
    verts = p.vertices()
    print(f"vertices: {len(verts)}")
    for v in verts:
        print(f"  {_fmt_point(v.point)} on facets {sorted(v.active)}")
    center = equidistant_point(p)
    if center is None:
        print("equidistant point: none")
    else:
        print(f"equidistant point: {_fmt_point(center[0])} at value {_fmt(center[1])}")
    return 0


def _cmd_hf(args) -> int:
    p = load_polytope(args.file)
    value = hf(p, limit=args.limit)
    # rank + nullity is the size of the space and nullity - rank the invariant
    if p.is_even():
        size, diff, label = 1 << p.dim, value, ""
    else:
        size, diff, label = 1 << 2 * p.dim, value * value, "squared polytope: "
    print(f"hf = {value}  ({label}nullity {(size + diff) // 2}, rank {(size - diff) // 2})")
    if args.tr_bound:
        bound, caveat = hf_lower_bound_tr(p)
        print(f"torus/real-locus intersection bound: {bound}")
        print(f"caveat: {caveat}")
    return 0


def _cmd_product(args) -> int:
    p1 = load_polytope(args.file1)
    p2 = load_polytope(args.file2)
    result = product(p1, p2)
    doc = polytope_to_doc(result, name=args.name or "")
    if args.output:
        save_json(args.output, doc)
        print(f"wrote {args.output}")
    else:
        print(f"dimension: {result.dim}, facets: {result.d}")
        _print_polytope(result)
    return 0


def _cmd_reduce(args) -> int:
    ambient = load_polytope(args.ambient)
    sec = load_section(args.section)
    result = reduce_polytope(ambient, sec)
    doc = polytope_to_doc(result, name=args.name or "")
    generators = sec.subtorus_generators()
    levels = sec.levels()
    if generators:
        pairs = ", ".join(
            f"{g} at level {_fmt(c)}" for g, c in zip(generators, levels)
        )
        print(f"quotient subtorus: {pairs}")
    if args.output:
        save_json(args.output, doc)
        print(f"wrote {args.output}")
    else:
        print(f"dimension: {result.dim}, facets: {result.d}")
        _print_polytope(result)
    return 0


def _print_claim(claim) -> None:
    print(f"claim kind: {claim.kind}")
    print(f"polytope: dimension {claim.polytope.dim}, {claim.polytope.d} facets")
    _print_polytope(claim.polytope)
    print(f"marked point: {_fmt_point(claim.marked_point)}")
    print(f"intersection bound: {claim.bound}")
    if claim.citations:
        print("citations:")
        for c in claim.citations:
            print(f"  - {c}")
    if claim.hypotheses:
        print("recorded hypotheses:")
        for h in claim.hypotheses:
            print(f"  - {h}")


def _cmd_certify(args) -> int:
    cert = load_certificate(args.file)
    if cert.name:
        print(f"certificate: {cert.name}")
    try:
        claim = verify(cert)
    except VerificationError as exc:
        print(f"result: FAILED ({type(exc).__name__})")
        print(str(exc))
        return 1
    _print_claim(claim)
    print("result: VERIFIED")
    return 0


def _cmd_auto_certify(args) -> int:
    p = load_polytope(args.file)
    cert = auto_certify_monotone(p)
    claim = verify(cert)
    _print_claim(claim)
    if args.output:
        save_json(args.output, certificate_to_doc(cert))
        print(f"wrote {args.output}")
    return 0


def _cmd_probe(args) -> int:
    doc = load_json(args.file)
    p = polytope_from_doc(doc, str(args.file)).canonical_form()
    try:
        point = tuple(Fraction(x) for x in args.point.split(","))
    except (ValueError, ZeroDivisionError):
        raise DocumentError(f"bad point {args.point!r}; expected comma-separated rationals")
    probe = probe_scan(p, point, args.bound)
    if probe is None:
        print(
            f"no probe with direction bound {args.bound} displaces {_fmt_point(point)}"
        )
    else:
        reach = probe_reach(p, probe)
        t = p.support(probe.facet, point)
        print(f"displaceable: facet {probe.facet}, direction {probe.direction}, "
              f"base {_fmt_point(probe.base)}")
        print(f"reach {_fmt(reach)}; point sits at parameter {_fmt(t)}, "
              f"inside the displaceable segment (0, {_fmt(reach / 2)})")
    return 0


def _cmd_render(args) -> int:
    doc = load_json(args.file)
    p = polytope_from_doc(doc, str(args.file))
    marked = marked_points_from_doc(doc, str(args.file))
    svg = render_svg(p, marked)
    out = args.output or (Path(args.file).stem + ".svg")
    Path(out).write_text(svg, encoding="utf-8")
    print(f"wrote {out}")
    return 0


def _cmd_corpus(args) -> int:
    if args.action == "list":
        for name in corpus_mod.data_names():
            print(name)
        return 0
    if args.action == "export":
        if not args.output:
            print("corpus export needs -o DIRECTORY", file=sys.stderr)
            return 2
        outdir = Path(args.output)
        outdir.mkdir(parents=True, exist_ok=True)
        for name in corpus_mod.data_names():
            doc = corpus_mod.load_doc(name.removesuffix(".json"))
            save_json(outdir / name, doc)
        print(f"exported {len(corpus_mod.data_names())} files to {outdir}")
        return 0
    rows = corpus_mod.run()
    case_w = max(len(r.case) for r in rows)
    check_w = max(len(r.check) for r in rows)
    exp_w = max(len(r.expected) for r in rows)
    failures = 0
    for r in rows:
        status = "ok" if r.ok else "FAIL"
        if args.color:
            status = f"{GREEN}{status}{RESET}" if r.ok else f"{RED}{status}{RESET}"
        print(
            f"{r.case:<{case_w}}  {r.check:<{check_w}}  "
            f"{r.expected:<{exp_w}}  {r.computed:<{exp_w}}  {status}"
        )
        if not r.ok:
            failures += 1
    print()
    if failures:
        print(f"{failures} of {len(rows)} checks failed")
        return 1
    print(f"all {len(rows)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentcert",
        description="Exact invariants, reductions and non-displaceability "
        "certificates for moment polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="dimension, flags, vertices and center of a polytope")
    p.add_argument("file")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("hf", help="the GF(2) rank invariant of a polytope")
    p.add_argument("file")
    p.add_argument("--tr-bound", action="store_true",
                   help="also print the torus/real-locus bound with its caveat")
    p.add_argument("--limit", type=int, default=DIMENSION_LIMIT,
                   help="largest admissible operator dimension")
    p.set_defaults(func=_cmd_hf)

    p = sub.add_parser("product", help="cartesian product of two polytopes")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("-o", "--output")
    p.add_argument("--name", default="")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("reduce", help="reduce a polytope along an affine section")
    p.add_argument("ambient")
    p.add_argument("--slice", dest="section", required=True,
                   help="section file or inline JSON {\"A\": ..., \"x0\": ...}")
    p.add_argument("-o", "--output")
    p.add_argument("--name", default="")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("certify", help="verify a certificate file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("auto-certify", help="certify the center of a monotone polytope")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_auto_certify)

    p = sub.add_parser("probe", help="scan for a displacing probe through a point")
    p.add_argument("file")
    p.add_argument("--point", required=True, help="comma-separated rationals, e.g. 3/2,0")
    p.add_argument("--bound", type=int, default=3, help="max-norm bound on directions")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("render", help="deterministic SVG of a 2D polytope")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("corpus", help="bundled worked examples")
    p.add_argument("action", choices=("run", "list", "export"))
    p.add_argument("-o", "--output")
    p.add_argument("--color", action="store_true")
    p.set_defaults(func=_cmd_corpus)

    return parser


def _attach_point(argv: list[str]) -> list[str]:
    """Join each --point to its value with "=".

    argparse reads a separate value that starts with "-", such as the point
    -1/2,0, as an option; attached with "=" it stays the option's value.
    """
    out = []
    args = iter(argv)
    for arg in args:
        value = next(args, None) if arg == "--point" else None
        out.append(arg if value is None else f"--point={value}")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_point(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MomentcertError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
