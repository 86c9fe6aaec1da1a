"""Command-line front end.

Exit codes: 0 success, 1 verification or computation failure, 2 malformed
input.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import corpus as corpus_mod
from .certificate import TR_CAVEAT, auto_certify_monotone, verify
from .documents import (
    certificate_to_doc,
    load_certificate,
    load_json,
    load_polytope,
    load_section,
    marked_points_from_doc,
    parse_rational,
    polytope_from_doc,
    polytope_to_doc,
    save_json,
    save_text,
)
from .errors import DocumentError, MomentcertError, VerificationError
from .floer import hf
from .lattice import format_vec
from .polytope import _delzant_at, equidistant_point, product
from .probes import probe_reach, probe_scan
from .reduction import reduce_polytope
from .render import render_svg


def _print_polytope(p) -> None:
    for nu, a in p.facets:
        terms = " ".join(f"{c:+d} x{i + 1}" for i, c in enumerate(nu) if c != 0)
        print(f"  {terms} {'+' if a >= 0 else '-'} {abs(a)} >= 0")


def _write_or_print(result, args) -> int:
    """Save result to -o under --name, or print it."""
    if args.output:
        save_json(args.output, polytope_to_doc(result, name=args.name or ""))
        print(f"wrote {args.output}")
    else:
        print(f"dimension: {result.dim}, facets: {result.d}")
        _print_polytope(result)
    return 0


def _cmd_info(args) -> int:
    doc = load_json(args.file)
    p = polytope_from_doc(doc, str(args.file))
    name = doc.get("name", Path(args.file).stem)
    print(f"name: {name}")
    print(f"dimension: {p.dim}")
    print(f"facets: {p.d}")
    _print_polytope(p)
    verts = p.vertices()
    print(f"compact: {p.is_compact()}")
    print(f"delzant: {_delzant_at(p, (v.active for v in verts))}")
    print(f"even: {p.is_even()}")
    print(f"symmetric: {p.is_symmetric()}")
    center = equidistant_point(p)
    print(f"monotone: {center[1] if center is not None else 'no'}")
    print(f"vertices: {len(verts)}")
    for v in verts:
        print(f"  {format_vec(v.point)} on facets {sorted(v.active)}")
    if center is None:
        print("equidistant point: none")
    else:
        print(f"equidistant point: {format_vec(center[0])} at value {center[1]}")
    return 0


def _cmd_hf(args) -> int:
    p = load_polytope(args.file)
    value = hf(p)
    # rank + nullity is the size of the space and nullity - rank the invariant
    if p.is_even():
        size, diff, label = 1 << p.dim, value, ""
    else:
        size, diff, label = 1 << 2 * p.dim, value * value, "squared polytope: "
    print(f"hf = {value}  ({label}nullity {(size + diff) // 2}, rank {(size - diff) // 2})")
    if args.tr_bound:
        print(f"torus/real-locus intersection bound: {value}")
        print(f"caveat: {TR_CAVEAT}")
    return 0


def _cmd_product(args) -> int:
    result = product(load_polytope(args.file1), load_polytope(args.file2))
    return _write_or_print(result, args)


def _cmd_reduce(args) -> int:
    ambient = load_polytope(args.ambient)
    sec = load_section(args.section)
    result = reduce_polytope(ambient, sec)
    generators = sec.subtorus_generators()
    levels = sec.levels()
    if generators:
        pairs = ", ".join(f"{g} at level {c}" for g, c in zip(generators, levels))
        print(f"quotient subtorus: {pairs}")
    return _write_or_print(result, args)


def _print_claim(claim) -> None:
    print(f"claim kind: {claim.kind}")
    print(f"polytope: dimension {claim.polytope.dim}, {claim.polytope.d} facets")
    _print_polytope(claim.polytope)
    print(f"marked point: {format_vec(claim.marked_point)}")
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
    as_read = load_polytope(args.file)
    p = as_read.canonical_form()
    point = tuple(parse_rational(x, "--point") for x in args.point.split(","))
    if len(point) != p.dim:
        raise DocumentError(f"--point: expected {p.dim} coordinates, got {len(point)}")
    if args.bound < 0:
        raise DocumentError("--bound: expected a non-negative integer")
    probe = probe_scan(p, point, args.bound)
    if probe is None:
        print(
            f"no probe with direction bound {args.bound} displaces {format_vec(point)}"
        )
    else:
        reach = probe_reach(p, probe)
        t = p.support(probe.facet, point)
        # the scan runs in canonical order; the facet is named by its index in the file
        facet = as_read.facets.index(p.facets[probe.facet])
        print(f"displaceable: facet {facet}, direction {probe.direction}, "
              f"base {format_vec(probe.base)}")
        print(f"reach {reach}; point sits at parameter {t}, "
              f"inside the displaceable segment (0, {reach / 2})")
    return 0


def _cmd_render(args) -> int:
    doc = load_json(args.file)
    p = polytope_from_doc(doc, str(args.file))
    marked = marked_points_from_doc(doc, str(args.file))
    svg = render_svg(p, marked)
    out = args.output or (Path(args.file).stem + ".svg")
    save_text(out, svg)
    print(f"wrote {out}")
    return 0


def _cmd_corpus(args) -> int:
    if args.action == "list":
        for name in corpus_mod.data_names():
            print(name)
        return 0
    if args.action == "export":
        if not args.output:
            raise DocumentError("corpus export needs -o DIRECTORY")
        outdir = Path(args.output)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise DocumentError(f"{outdir}: {exc}") from exc
        names = corpus_mod.data_names()
        for name in names:
            save_json(outdir / name, corpus_mod.load_doc(name.removesuffix(".json")))
        print(f"exported {len(names)} files to {outdir}")
        return 0
    rows = corpus_mod.run()
    case_w = max(len(r.case) for r in rows)
    check_w = max(len(r.check) for r in rows)
    exp_w = max(len(r.expected) for r in rows)
    failures = 0
    for r in rows:
        status = "ok" if r.ok else "FAIL"
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

    p = sub.add_parser("hf", help="the GF(2) rank invariant of a polytope")
    p.add_argument("file")
    p.add_argument("--tr-bound", action="store_true",
                   help="also print the torus/real-locus bound with its caveat")

    p = sub.add_parser("product", help="cartesian product of two polytopes")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("-o", "--output")
    p.add_argument("--name", default="")

    p = sub.add_parser("reduce", help="reduce a polytope along an affine section")
    p.add_argument("ambient")
    p.add_argument("--slice", dest="section", required=True,
                   help="section file or inline JSON {\"A\": ..., \"x0\": ...}")
    p.add_argument("-o", "--output")
    p.add_argument("--name", default="")

    p = sub.add_parser("certify", help="verify a certificate file")
    p.add_argument("file")

    p = sub.add_parser("auto-certify", help="certify the center of a monotone polytope")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    p = sub.add_parser("probe", help="scan for a displacing probe through a point")
    p.add_argument("file")
    p.add_argument("--point", required=True, help="comma-separated rationals, e.g. 3/2,0")
    p.add_argument("--bound", type=int, default=3, help="max-norm bound on directions")

    p = sub.add_parser("render", help="deterministic SVG of a 2D polytope")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    p = sub.add_parser("corpus", help="bundled worked examples")
    p.add_argument("action", choices=("run", "list", "export"))
    p.add_argument("-o", "--output")

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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main call and reused by later ones.

    Not built at import: importing cli should cost no parser.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(_attach_point(sys.argv[1:] if argv is None else list(argv)))
    # looked up per call, not bound into the cached parser, so that a
    # _cmd_* function replaced after the first call still takes effect
    command = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        code = command(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # stdout goes to devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MomentcertError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
