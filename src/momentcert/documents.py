"""JSON documents for polytopes, sections and certificates.

Rationals travel as exact strings ("5/4") or plain integers; float
literals are rejected so no inexact value can sneak in.  Parse errors
carry the offending file position or document path.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from . import certificate as cert_mod
from .certificate import BaseFact, Certificate, Product, Reduction
from .errors import DocumentError, MomentcertError
from .polytope import Polytope, polytope
from .reduction import AffineReduction, section

# Deepest certificate tree accepted: base facts at this many product or
# reduce levels below the root.  Verification recurses once per level.
MAX_DEPTH = 64


def parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise DocumentError(f"{where}: write non-integers as strings like \"5/4\"")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction would expand an exponent such as "1e3000000" digit by digit
        if "e" in value.lower():
            raise DocumentError(f"{where}: bad rational {value!r} (exponents are not accepted)")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"{where}: bad rational {value!r} ({exc})") from None
    raise DocumentError(f"{where}: expected an integer or \"p/q\" string")


def rational_to_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _int_list(value, where: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise DocumentError(f"{where}: expected a list of integers")
    return tuple(value)


def _rational_list(value, where: str):
    if not isinstance(value, list):
        raise DocumentError(f"{where}: expected a list")
    return tuple(parse_rational(v, f"{where}[{i}]") for i, v in enumerate(value))


def _int_matrix(value, where: str):
    if not isinstance(value, list):
        raise DocumentError(f"{where}: expected a matrix (list of rows)")
    return tuple(_int_list(row, f"{where}[{i}]") for i, row in enumerate(value))


def _known_keys(doc: dict, keys: tuple[str, ...], where: str) -> None:
    """Refuse a key outside keys: a misspelt key would drop the check it names."""
    for key in doc:
        if key not in keys:
            raise DocumentError(f"{where}.{key}: unknown key; expected {', '.join(keys)}")


# -- polytopes ---------------------------------------------------------------

def polytope_from_doc(doc, where: str = "polytope") -> Polytope:
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected an object")
    if "dim" not in doc or "facets" not in doc:
        raise DocumentError(f"{where}: needs 'dim' and 'facets'")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise DocumentError(f"{where}.dim: expected a nonnegative integer")
    facets = doc["facets"]
    if not isinstance(facets, list):
        raise DocumentError(f"{where}.facets: expected a list")
    pairs = []
    for i, f in enumerate(facets):
        fw = f"{where}.facets[{i}]"
        if not isinstance(f, dict) or "normal" not in f or "offset" not in f:
            raise DocumentError(f"{fw}: needs 'normal' and 'offset'")
        pairs.append((_int_list(f["normal"], f"{fw}.normal"), parse_rational(f["offset"], f"{fw}.offset")))
        _known_keys(f, ("normal", "offset"), fw)
    _known_keys(doc, ("name", "citation", "dim", "facets", "marked_points"), where)
    try:
        return polytope(dim, pairs)
    except MomentcertError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def marked_points_from_doc(doc, where: str = "polytope"):
    """The document's marked points; doc must have passed polytope_from_doc."""
    points = doc.get("marked_points", [])
    if not isinstance(points, list):
        raise DocumentError(f"{where}.marked_points: expected a list")
    out = []
    for i, pt in enumerate(points):
        pw = f"{where}.marked_points[{i}]"
        point = _rational_list(pt, pw)
        if len(point) != doc["dim"]:
            raise DocumentError(f"{pw}: expected {doc['dim']} coordinates, got {len(point)}")
        out.append(point)
    return tuple(out)


def polytope_to_doc(p: Polytope, name: str = "") -> dict:
    doc = {}
    if name:
        doc["name"] = name
    doc["dim"] = p.dim
    doc["facets"] = [
        {"normal": list(f.normal), "offset": rational_to_json(f.offset)} for f in p.facets
    ]
    return doc


# -- sections ----------------------------------------------------------------

def section_from_doc(doc, where: str = "section",
                     keys: tuple[str, ...] = ("A", "x0", "name", "citation")) -> AffineReduction:
    """The section a document gives, refusing keys outside keys: those of a
    section document by default, those of a reduce body for one."""
    if not isinstance(doc, dict) or "A" not in doc:
        raise DocumentError(f"{where}: needs the matrix 'A' (and optional 'x0')")
    mat = _int_matrix(doc["A"], f"{where}.A")
    base = None
    if "x0" in doc:
        base = _rational_list(doc["x0"], f"{where}.x0")
    _known_keys(doc, keys, where)
    try:
        return section(mat, base)
    except MomentcertError as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def section_to_doc(sec: AffineReduction) -> dict:
    return {
        "A": [list(row) for row in sec.matrix],
        "x0": [rational_to_json(x) for x in sec.base],
    }


# -- certificates ------------------------------------------------------------

def _node_from_doc(doc, claim_kind: str, where: str, depth: int = 0):
    if depth > MAX_DEPTH:
        raise DocumentError(f"{where}: certificate tree nested deeper than {MAX_DEPTH} levels")
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected an object")
    if "base" in doc:
        kind = doc["base"]
        if kind not in cert_mod.BASE_KINDS:
            raise DocumentError(f"{where}.base: unknown kind {kind!r}")
        if "instance" not in doc:
            raise DocumentError(f"{where}: base fact needs an 'instance' polytope")
        instance = polytope_from_doc(doc["instance"], f"{where}.instance")
        weights = None
        if "weights" in doc:
            if kind != cert_mod.WEIGHTED_PROJECTIVE:
                raise DocumentError(f"{where}.weights: only a weighted_projective leaf takes weights")
            weights = _int_list(doc["weights"], f"{where}.weights")
        if "basis_change" in doc:
            raise DocumentError(
                f"{where}.basis_change: not accepted; write the leaf in the model's "
                "coordinates and reduce it along the square section A = C^(-T)"
            )
        _known_keys(doc, ("base", "instance", "weights"), where)
        return BaseFact(kind, claim_kind, instance, weights)
    if "product" in doc:
        children = doc["product"]
        if not isinstance(children, list) or not children:
            raise DocumentError(f"{where}.product: expected a non-empty list")
        _known_keys(doc, ("product",), where)
        return Product(
            tuple(
                _node_from_doc(c, claim_kind, f"{where}.product[{i}]", depth + 1)
                for i, c in enumerate(children)
            )
        )
    if "reduce" in doc:
        red = doc["reduce"]
        if not isinstance(red, dict) or "child" not in red:
            raise DocumentError(f"{where}.reduce: needs 'A', optional 'x0', and 'child'")
        sec = section_from_doc(red, f"{where}.reduce", ("A", "x0", "child", "target"))
        child = _node_from_doc(red["child"], claim_kind, f"{where}.reduce.child", depth + 1)
        target = None
        if "target" in red:
            target = polytope_from_doc(red["target"], f"{where}.reduce.target")
        _known_keys(doc, ("reduce",), where)
        return Reduction(child, sec, target)
    raise DocumentError(f"{where}: node must carry 'base', 'product' or 'reduce'")


def certificate_from_doc(doc, where: str = "certificate") -> Certificate:
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected an object")
    claim = doc.get("claim")
    if not isinstance(claim, dict) or claim.get("kind") not in (cert_mod.TT, cert_mod.TR):
        raise DocumentError(f"{where}.claim: needs kind \"TT\" or \"TR\"")
    if "tree" not in doc:
        raise DocumentError(f"{where}: needs a 'tree'")
    kind = claim["kind"]
    marked = None
    if "marked_point" in claim:
        marked = _rational_list(claim["marked_point"], f"{where}.claim.marked_point")
    target = None
    if "target" in claim:
        target = polytope_from_doc(claim["target"], f"{where}.claim.target")
    _known_keys(claim, ("kind", "marked_point", "target"), f"{where}.claim")
    _known_keys(doc, ("name", "citation", "claim", "tree"), where)
    root = _node_from_doc(doc["tree"], kind, f"{where}.tree")
    return Certificate(root, kind, marked, target, doc.get("name", ""))


def _node_to_doc(node) -> dict:
    if isinstance(node, BaseFact):
        doc = {"base": node.kind, "instance": polytope_to_doc(node.instance)}
        if node.weights is not None:
            doc["weights"] = list(node.weights)
        return doc
    if isinstance(node, Product):
        return {"product": [_node_to_doc(c) for c in node.children]}
    if isinstance(node, Reduction):
        red = section_to_doc(node.section)
        red["child"] = _node_to_doc(node.child)
        if node.target is not None:
            red["target"] = polytope_to_doc(node.target)
        return {"reduce": red}
    raise DocumentError(f"cannot serialize node {type(node).__name__}")


def certificate_to_doc(cert: Certificate) -> dict:
    claim = {"kind": cert.kind}
    if cert.marked_point is not None:
        claim["marked_point"] = [rational_to_json(x) for x in cert.marked_point]
    if cert.target is not None:
        claim["target"] = polytope_to_doc(cert.target)
    doc = {}
    if cert.name:
        doc["name"] = cert.name
    doc["claim"] = claim
    doc["tree"] = _node_to_doc(cert.root)
    return doc


# -- files -------------------------------------------------------------------

def load_json(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"{path}: {exc}") from exc
    return _decode(text, str(path))


def _decode(text: str, where: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{where}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError:
        # json.loads raises a plain ValueError for integers past int's digit limit
        raise DocumentError(f"{where}: an integer literal has too many digits") from None
    except RecursionError:
        raise DocumentError(f"{where}: JSON nested too deeply") from None


def save_text(path, text: str) -> None:
    """Write text to path; an unwritable path fails like an unreadable one."""
    path = Path(path)
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"{path}: {exc}") from exc


def save_json(path, doc) -> None:
    save_text(path, json.dumps(doc, indent=2) + "\n")


def load_polytope(path) -> Polytope:
    return polytope_from_doc(load_json(path), str(path))


def load_section(path_or_inline: str) -> AffineReduction:
    text = str(path_or_inline).strip()
    if text.startswith("{"):
        return section_from_doc(_decode(text, "inline section"), "inline section")
    return section_from_doc(load_json(text), text)


def load_certificate(path) -> Certificate:
    return certificate_from_doc(load_json(path), str(path))
