import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cmp_to_key
from itertools import product as iter_product
from pathlib import Path

import pytest

from momentcert import cli, corpus, floer, lattice
from momentcert.certificate import TR_CAVEAT
from momentcert.cli import main
from momentcert.corpus import load_corpus_polytope, load_doc
from momentcert.documents import (
    marked_points_from_doc,
    polytope_from_doc,
    polytope_to_doc,
    save_json,
)
from momentcert.errors import MomentcertError
from momentcert.floer import boundary_op, rank_gf2
from momentcert.polytope import Polytope, equidistant_point, polytope, product
from momentcert.reduction import cube, simplex
from momentcert.render import _angle_key, render_svg


@pytest.fixture()
def corpus_dir(tmp_path):
    assert main(["corpus", "export", "-o", str(tmp_path / "corpus")]) == 0
    return tmp_path / "corpus"


def test_info(corpus_dir, capsys):
    assert main(["info", str(corpus_dir / "hexagon.json")]) == 0
    out = capsys.readouterr().out
    assert "dimension: 2" in out
    assert "facets: 6" in out
    assert "symmetric: True" in out
    assert "monotone: 1" in out
    assert "equidistant point: (0, 0)" in out


STRIP = {"dim": 2, "facets": [{"normal": [1, 0], "offset": 1}, {"normal": [-1, 0], "offset": 1}]}


def test_info_on_a_strip_has_no_vertices_and_no_center(tmp_path, capsys):
    path = tmp_path / "strip.json"
    save_json(path, STRIP)
    assert main(["info", str(path)]) == 0
    out = capsys.readouterr().out
    assert "compact: False" in out
    assert "monotone: no\n" in out  # equal offsets, but no unique equidistant point
    assert "vertices: 0\n" in out
    assert out.endswith("equidistant point: none\n")


TEXTBOOK_CP2 = {"dim": 2, "facets": [
    {"normal": [1, 0], "offset": 0}, {"normal": [0, 1], "offset": 0},
    {"normal": [-1, -1], "offset": 1},
]}


def test_the_textbook_cp2_is_monotone_at_its_center(tmp_path, capsys):
    path = tmp_path / "cp2.json"
    save_json(path, TEXTBOOK_CP2)
    assert main(["info", str(path)]) == 0
    out = capsys.readouterr().out
    assert "monotone: 1/3\n" in out
    assert "equidistant point: (1/3, 1/3) at value 1/3\n" in out
    assert main(["auto-certify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "marked point: (1/3, 1/3)\n" in out
    assert "intersection bound: 4\n" in out


def test_info_enumerates_vertices_once(corpus_dir, capsys, monkeypatch):
    calls = []
    original = Polytope.vertices

    def counted(self):
        calls.append(self.d)
        return original(self)

    monkeypatch.setattr(Polytope, "vertices", counted)
    assert main(["info", str(corpus_dir / "hexagon.json")]) == 0
    out = capsys.readouterr().out
    assert "delzant: True" in out and "vertices: 6" in out
    assert calls == [6]


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    original = cli.build_parser

    def counted():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        assert main(["corpus", "list"]) == 0
        assert main(["corpus", "list"]) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    assert capsys.readouterr().out.count("hexagon") >= 2


def test_main_calls_a_command_replaced_after_the_parser_was_built(capsys, monkeypatch):
    assert main(["corpus", "list"]) == 0
    seen = []
    monkeypatch.setattr(cli, "_cmd_corpus", lambda args: seen.append(args.action) or 0)
    assert main(["corpus", "list"]) == 0
    assert seen == ["list"]


def test_hf_command(corpus_dir, capsys):
    assert main(["hf", str(corpus_dir / "simplex2.json")]) == 0
    out = capsys.readouterr().out
    assert "hf = 2" in out
    assert "nullity 10, rank 6" in out
    assert main(["hf", str(corpus_dir / "hexagon.json"), "--tr-bound"]) == 0
    out = capsys.readouterr().out
    assert "hf = 4" in out
    assert "nullity 4, rank 0" in out
    assert "squared" not in out
    assert "bound: 4" in out
    assert "caveat" in out


def test_hf_tr_bound_eliminates_once(corpus_dir, capsys, monkeypatch):
    calls = []
    original = floer.rank_gf2
    monkeypatch.setattr(floer, "rank_gf2", lambda op: calls.append(op.dim) or original(op))
    assert main(["hf", str(corpus_dir / "simplex2.json"), "--tr-bound"]) == 0
    assert calls == [4]
    assert capsys.readouterr().out == (
        "hf = 2  (squared polytope: nullity 10, rank 6)\n"
        "torus/real-locus intersection bound: 2\n"
        f"caveat: {TR_CAVEAT}\n"
    )


@pytest.mark.parametrize("name", ["segment", "simplex2", "simplex3", "hexagon", "cp2_blowup1", "cube"])
def test_hf_command_counts_match_the_operator(corpus_dir, capsys, name):
    p = load_corpus_polytope(name)
    rank, nullity = rank_gf2(boundary_op(p if p.is_even() else product(p, p)))
    assert main(["hf", str(corpus_dir / f"{name}.json")]) == 0
    assert f"nullity {nullity}, rank {rank})" in capsys.readouterr().out


def test_hf_command_over_the_dimension_limit(tmp_path, capsys):
    # simplex(8) has 9 facets, so hf works on P x P: a 16-dimensional operator
    path = tmp_path / "simplex8.json"
    save_json(path, polytope_to_doc(simplex(8), name="simplex8"))
    assert main(["hf", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error: DimensionLimitError" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, p, out", [
    ("simplex7", simplex(7), "hf = 16  (nullity 72, rank 56)\n"),
    ("cube7", cube(7), "hf = 128  (nullity 128, rank 0)\n"),
])
def test_hf_command_on_an_even_polytope_past_dimension_6(tmp_path, capsys, name, p, out):
    # an even facet count needs P's own operator only, not the 14-dimensional P x P
    path = tmp_path / f"{name}.json"
    save_json(path, polytope_to_doc(p, name=name))
    assert main(["hf", str(path)]) == 0
    assert capsys.readouterr().out == out


def test_hf_command_on_an_even_polytope_over_the_dimension_limit(tmp_path, capsys):
    path = tmp_path / "cube14.json"
    save_json(path, polytope_to_doc(cube(14), name="cube14"))
    assert main(["hf", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error: DimensionLimitError: dimension 14 exceeds the limit 13" in err
    assert "Traceback" not in err


def test_hf_command_has_no_limit_option(corpus_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hf", str(corpus_dir / "simplex2.json"), "--limit", "20"])
    assert exc.value.code == 2
    assert "--limit" in capsys.readouterr().err


def test_info_names_a_duplicate_facet_as_normal_and_offset(tmp_path, capsys):
    path = tmp_path / "twice.json"
    facet = {"normal": [1], "offset": "1/2"}
    save_json(path, {"dim": 1, "facets": [facet, facet]})
    assert main(["info", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: duplicate facet (1,):1/2\n"


def _assert_malformed(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_info_rejects_an_integer_past_the_digit_limit(tmp_path, capsys):
    doc = load_doc("simplex2")
    path = tmp_path / "huge.json"
    save_json(path, doc)
    text = path.read_text().replace('"offset": 1', '"offset": ' + "7" * 5000, 1)
    path.write_text(text)
    _assert_malformed(["info", str(path)], capsys)


def test_info_rejects_an_exponent_offset(tmp_path, capsys):
    doc = load_doc("simplex2")
    doc["facets"][0]["offset"] = "1e3000000"
    path = tmp_path / "exponent.json"
    save_json(path, doc)
    _assert_malformed(["info", str(path)], capsys)


def test_probe_rejects_an_exponent_point(corpus_dir, capsys):
    _assert_malformed(["probe", str(corpus_dir / "simplex2.json"), "--point", "1e3000000,0"], capsys)


def _weighted_leaf_doc(weights):
    instance = polytope_to_doc(simplex(2))
    tree = {"base": "weighted_projective", "instance": instance, "weights": weights}
    return {"claim": {"kind": "TT"}, "tree": tree}


def _clifford_leaf():
    return {"base": "clifford_torus", "instance": polytope_to_doc(simplex(2))}


def _reduce_doc(rows, x0):
    """simplex(2) as a Clifford leaf, reduced along the section (rows, x0)."""
    tree = {"reduce": {"A": rows, "x0": x0, "child": _clifford_leaf()}}
    return {"claim": {"kind": "TT"}, "tree": tree}


def _hexagon_tr(claim=None, reduce=None, leaf=None, tree=None):
    """The bundled hexagon_tr certificate with keys added to its claim, its
    reduce body, its first leaf and its root node."""
    doc = load_doc("hexagon_tr")
    doc["claim"].update(claim or {})
    doc["tree"]["reduce"].update(reduce or {})
    doc["tree"]["reduce"]["child"]["product"][0].update(leaf or {})
    doc["tree"].update(tree or {})
    return doc


def _target_at_top_level(name):
    """A bundled certificate with its claim's target moved to the top level
    and one offset changed there: misplaced, the target would check nothing."""
    doc = load_doc(name)
    target = doc["claim"].pop("target")
    target["facets"][0]["offset"] = 7
    return {**doc, "target": target}


HEXAGON = load_doc("hexagon")
REJECTED = ("result: FAILED (ReducedPolytopeMismatchError)\n"
            "section does not reduce the child polytope: ")
UNWRITABLE = "polytope.json/out"  # under a regular file, so not even root can create it


# argv runs in a scratch directory holding the document as polytope.json
@pytest.mark.parametrize("doc, argv, code, message", [
    ({"dim": True, "facets": [{"normal": [1], "offset": 1}, {"normal": [-1], "offset": 1}]},
     ["info", "polytope.json"], 2, "error: polytope.json.dim: expected a nonnegative integer"),
    (HEXAGON, ["probe", "polytope.json", "--point", "1/2"], 2,
     "error: --point: expected 2 coordinates, got 1"),
    (HEXAGON, ["probe", "polytope.json", "--point", "0,0", "--bound", "-1"], 2,
     "error: --bound: expected a non-negative integer"),
    ({**HEXAGON, "marked_points": [[0, 0], [0, 0, 1]]},
     ["render", "polytope.json", "-o", "out.svg"], 2,
     "error: polytope.json.marked_points[1]: expected 2 coordinates, got 3"),
    (_weighted_leaf_doc([2, 1, 1]), ["certify", "polytope.json"], 1,
     "result: FAILED (ModelMismatchError)"),
    (_weighted_leaf_doc([1, 0, 1]), ["certify", "polytope.json"], 1,
     "result: FAILED (ModelMismatchError)"),
    ({"claim": {"kind": "TT"},
      "tree": {"base": "clifford_torus", "instance": {"dim": 0, "facets": []}}},
     ["certify", "polytope.json"], 1, "result: FAILED (ModelMismatchError)"),
    (_weighted_leaf_doc([1, 2, 2]), ["certify", "polytope.json"], 1,
     "result: FAILED (ModelMismatchError)"),
    (_reduce_doc([[1, 0], [0, 1], [1, 1]], [0, 0, 0]), ["certify", "polytope.json"], 1,
     REJECTED + "SliceError: section lives in dimension 3, polytope in 2"),
    (_reduce_doc([[2], [1]], [0, 0]), ["certify", "polytope.json"], 1,
     REJECTED + "NonPrimitiveImageError: facet (-1, -1) maps to non-primitive (-3,)"),
    (_reduce_doc([[1], [0]], [0, -1]), ["certify", "polytope.json"], 1,
     REJECTED + "SliceOutsidePolytopeError: slice misses the interior"),
    (_reduce_doc([[1], [0]], [0, 2]), ["certify", "polytope.json"], 1,
     REJECTED + "EmptyInteriorError: cannot prune a system with empty interior"),
    (HEXAGON, ["product", "polytope.json", "polytope.json", "-o", UNWRITABLE], 2,
     f"error: {UNWRITABLE}: [Errno 20] Not a directory"),
    (HEXAGON, ["reduce", "polytope.json", "--slice", '{"A": [[1, 0], [0, 1]]}', "-o", UNWRITABLE],
     2, f"error: {UNWRITABLE}: [Errno 20] Not a directory"),
    (HEXAGON, ["auto-certify", "polytope.json", "-o", UNWRITABLE], 2,
     f"error: {UNWRITABLE}: [Errno 20] Not a directory"),
    (HEXAGON, ["render", "polytope.json", "-o", UNWRITABLE], 2,
     f"error: {UNWRITABLE}: [Errno 20] Not a directory"),
    (HEXAGON, ["corpus", "export", "-o", UNWRITABLE], 2,
     f"error: {UNWRITABLE}: [Errno 20] Not a directory"),
    (HEXAGON, ["corpus", "export"], 2, "error: corpus export needs -o DIRECTORY"),
    (HEXAGON, ["info", "missing.json"], 2,
     "error: missing.json: [Errno 2] No such file or directory"),
    ([HEXAGON], ["info", "polytope.json"], 2, "error: polytope.json: expected an object"),
    ({"dim": 2, "facets": {}}, ["info", "polytope.json"], 2,
     "error: polytope.json.facets: expected a list"),
    ({**HEXAGON, "marked_points": {}}, ["render", "polytope.json", "-o", "out.svg"], 2,
     "error: polytope.json.marked_points: expected a list"),
    ({"dim": 1, "facets": [{"normal": 1, "offset": 1}]}, ["info", "polytope.json"], 2,
     "error: polytope.json.facets[0].normal: expected a list of integers"),
    (HEXAGON, ["reduce", "polytope.json", "--slice", '{"A": [[1, 0], [0, 1]], "x0": 0}'], 2,
     "error: inline section.x0: expected a list"),
    (HEXAGON, ["reduce", "polytope.json", "--slice", '{"A": {}}'], 2,
     "error: inline section.A: expected a matrix (list of rows)"),
    ({"dim": 1, "facets": [{"normal": [1], "offset": None}, {"normal": [-1], "offset": 1}]},
     ["info", "polytope.json"], 2,
     'error: polytope.json.facets[0].offset: expected an integer or "p/q" string'),
    ({"dim": 2, "facets": [{"normal": [1], "offset": 1}, {"normal": [-1, 0], "offset": 1}]},
     ["info", "polytope.json"], 2,
     "error: polytope.json: normal (1,) has wrong length for dimension 2"),
    ({"dim": 2, "facets": [{"normal": [0, 0], "offset": 1}, {"normal": [1, 0], "offset": 1}]},
     ["info", "polytope.json"], 2, "error: polytope.json: normal (0, 0) is not primitive"),
    (HEXAGON, ["reduce", "polytope.json", "--slice", '{"x0": [0, 0]}'], 2,
     "error: inline section: needs the matrix 'A' (and optional 'x0')"),
    (HEXAGON, ["reduce", "polytope.json", "--slice", '{"A": [[1, 0], [1]]}'], 2,
     "error: inline section: ragged section matrix"),
    ({"claim": {"kind": "TT"}, "tree": {"reduce": {"A": [[1, 0], [0, 1]]}}},
     ["certify", "polytope.json"], 2,
     "error: polytope.json.tree.reduce: needs 'A', optional 'x0', and 'child'"),
    ({"claim": {"kind": "TT"}, "tree": {"child": _clifford_leaf()}}, ["certify", "polytope.json"],
     2, "error: polytope.json.tree: node must carry 'base', 'product' or 'reduce'"),
    ({"claim": {"kind": "TT"}, "tree": {"base": "cp1"}}, ["certify", "polytope.json"], 2,
     "error: polytope.json.tree: base fact needs an 'instance' polytope"),
    ([], ["certify", "polytope.json"], 2, "error: polytope.json: expected an object"),
    ({"claim": {"kind": "TT"}}, ["certify", "polytope.json"], 2,
     "error: polytope.json: needs a 'tree'"),
    ({"claim": {"kind": "TT"}, "tree": {**_clifford_leaf(), "basis_change": [[1, 0], [0, 1]]}},
     ["certify", "polytope.json"], 2,
     "error: polytope.json.tree.basis_change: not accepted; write the leaf in the model's "
     "coordinates and reduce it along the square section A = C^(-T)"),
    ({"claim": {"kind": "TT"},
      "tree": {"base": "cp1", "weights": [1, 7, 9], "instance": load_doc("segment")}},
     ["certify", "polytope.json"], 2,
     "error: polytope.json.tree.weights: only a weighted_projective leaf takes weights"),
    (polytope_to_doc(cube(3)), ["render", "polytope.json", "-o", "out.svg"], 1,
     "error: MomentcertError: rendering is only available for 2-dimensional polytopes"),
    (_hexagon_tr(claim={"marked_pont": ["5", "5"]}), ["certify", "polytope.json"], 2,
     "error: polytope.json.claim.marked_pont: unknown key; expected kind, marked_point, target"),
    (_hexagon_tr(reduce={"taget": load_doc("square")}), ["certify", "polytope.json"], 2,
     "error: polytope.json.tree.reduce.taget: unknown key; expected A, x0, child, target"),
    (_hexagon_tr(leaf={"product": [_clifford_leaf()]}), ["certify", "polytope.json"], 2,
     "error: polytope.json.tree.reduce.child.product[0].product: unknown key; "
     "expected base, instance, weights"),
    (_hexagon_tr(tree={"product": [_clifford_leaf()]}), ["certify", "polytope.json"], 2,
     "error: polytope.json.tree.reduce: unknown key; expected product"),
    (_hexagon_tr(tree={"target": load_doc("square")}), ["certify", "polytope.json"], 2,
     "error: polytope.json.tree.target: unknown key; expected reduce"),
    (_target_at_top_level("cp2_blowup1_tt"), ["certify", "polytope.json"], 2,
     "error: polytope.json.target: unknown key; expected name, citation, claim, tree"),
    ({**HEXAGON, "dimension": 2}, ["info", "polytope.json"], 2,
     "error: polytope.json.dimension: unknown key; "
     "expected name, citation, dim, facets, marked_points"),
    ({"dim": 1, "facets": [{"normal": [1], "offset": 1, "ofset": 2}, {"normal": [-1], "offset": 1}]},
     ["info", "polytope.json"], 2,
     "error: polytope.json.facets[0].ofset: unknown key; expected normal, offset"),
    (_hexagon_tr(leaf={"instance": {**HEXAGON, "facet": []}}), ["certify", "polytope.json"], 2,
     "error: polytope.json.tree.reduce.child.product[0].instance.facet: unknown key; "
     "expected name, citation, dim, facets, marked_points"),
    (HEXAGON, ["reduce", "polytope.json", "--slice", '{"A": [[1], [0]], "xo": ["1/2"]}'], 2,
     "error: inline section.xo: unknown key; expected A, x0, name, citation"),
], ids=["boolean-dim", "probe-point-length", "probe-negative-bound", "marked-point-length",
        "weights-lead", "weights-zero", "leaf-dim-0", "weights-non-primitive",
        "reduce-dim-mismatch", "reduce-non-primitive-image", "reduce-slice-outside",
        "reduce-empty-interior", "product-unwritable", "reduce-unwritable",
        "auto-certify-unwritable", "render-unwritable", "corpus-export-unwritable",
        "corpus-export-no-output", "missing-file", "top-level-list", "facets-type",
        "marked-points-type", "normal-type", "x0-type", "matrix-type", "offset-null",
        "normal-length", "normal-zero", "section-no-matrix", "ragged-slice", "reduce-no-child",
        "node-no-kind", "base-no-instance", "certificate-not-object", "certificate-no-tree",
        "leaf-basis-change", "leaf-weights-not-weighted", "render-dimension-3",
        "claim-unknown-key", "reduce-unknown-key", "leaf-unknown-key", "product-unknown-key",
        "reduce-node-unknown-key", "certificate-unknown-key", "polytope-unknown-key",
        "facet-unknown-key", "instance-unknown-key", "section-unknown-key"])
def test_hostile_input_exits_cleanly(tmp_path, monkeypatch, capsys, doc, argv, code, message):
    monkeypatch.chdir(tmp_path)
    save_json("polytope.json", doc)
    assert main(argv) == code
    captured = capsys.readouterr()
    text = captured.out + captured.err
    assert text.count("error:") + text.count("result: FAILED") == 1
    assert message in text
    assert "Traceback" not in text
    assert not (tmp_path / "out.svg").exists()


def test_product_command(corpus_dir, tmp_path, capsys):
    out_file = tmp_path / "square.json"
    assert main([
        "product",
        str(corpus_dir / "segment.json"),
        str(corpus_dir / "segment.json"),
        "-o",
        str(out_file),
        "--name",
        "square",
    ]) == 0
    doc = json.loads(out_file.read_text())
    assert doc["dim"] == 2
    assert len(doc["facets"]) == 4


def test_product_command_prints_without_output(corpus_dir, capsys):
    segment = str(corpus_dir / "segment.json")
    assert main(["product", segment, segment]) == 0
    assert capsys.readouterr().out == (
        "dimension: 2, facets: 4\n"
        "  +1 x1 + 1 >= 0\n"
        "  -1 x1 + 1 >= 0\n"
        "  +1 x2 + 1 >= 0\n"
        "  -1 x2 + 1 >= 0\n"
    )


def test_reduce_command_matches_corpus(corpus_dir, tmp_path, capsys):
    out_file = tmp_path / "hexagon.json"
    assert main([
        "reduce",
        str(corpus_dir / "cube.json"),
        "--slice",
        str(corpus_dir / "hexagon_section.json"),
        "-o",
        str(out_file),
    ]) == 0
    got = json.loads(out_file.read_text())
    expected = load_doc("hexagon")
    assert got["dim"] == expected["dim"]
    assert got["facets"] == expected["facets"]  # both are canonically sorted


def test_reduce_takes_one_smith_form_per_section(corpus_dir, capsys, monkeypatch):
    # the section's construction takes the Smith form, and the generators
    # and levels printed after the reduction read it back
    calls = []
    original = lattice.smith_normal_form

    def counted(mat):
        calls.append(mat)
        return original(mat)

    monkeypatch.setattr(lattice, "smith_normal_form", counted)
    assert main([
        "reduce",
        str(corpus_dir / "nonfano_pentagon_ambient.json"),
        "--slice",
        str(corpus_dir / "nonfano_pentagon_section.json"),
    ]) == 0
    assert "quotient subtorus: (0, -1, 1, 0, 0) at level 0" in capsys.readouterr().out
    assert len(calls) == 1


def test_reduce_inline_slice(corpus_dir, capsys):
    assert main([
        "reduce",
        str(corpus_dir / "cube.json"),
        "--slice",
        '{"A": [[1, 0], [0, 1], [1, 1]], "x0": [0, 0, 0]}',
    ]) == 0
    assert "facets: 6" in capsys.readouterr().out


def test_reduce_onto_a_point(corpus_dir, capsys):
    # reduced dimension 0: the whole torus is quotiented, one generator per axis
    assert main(["reduce", str(corpus_dir / "segment.json"), "--slice", '{"A": [[]]}']) == 0
    captured = capsys.readouterr()
    assert "quotient subtorus: (1,) at level 0" in captured.out
    assert "dimension: 0, facets: 0" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_certify_success_and_failure(corpus_dir, tmp_path, capsys):
    assert main(["certify", str(corpus_dir / "hexagon_tr.json")]) == 0
    out = capsys.readouterr().out
    assert "intersection bound: 4" in out
    assert "result: VERIFIED" in out

    doc = load_doc("hexagon_tr")
    doc["claim"]["marked_point"] = ["1/2", 0]
    bad = tmp_path / "bad_cert.json"
    save_json(bad, doc)
    assert main(["certify", str(bad)]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_point_errors_print_points_as_the_cli_does(corpus_dir, tmp_path, capsys):
    doc = load_doc("hexagon_tr")
    doc["claim"]["marked_point"] = ["1/2", 0]
    bad = tmp_path / "bad_cert.json"
    save_json(bad, doc)
    assert main(["certify", str(bad)]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "result: FAILED (MarkedPointMismatchError)",
        "declared marked point (1/2, 0) differs from computed (0, 0)",
    ]
    assert main(["probe", str(corpus_dir / "simplex2.json"), "--point", "5,1/2"]) == 1
    assert capsys.readouterr().err == "error: ProbeError: scan point (5, 1/2) is not interior\n"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "command", [["corpus", "run"], ["info", "hexagon.json"]], ids=["corpus-run", "info"]
)
def test_a_closed_stdout_ends_without_a_traceback(corpus_dir, command, unbuffered):
    """Unbuffered, the first print meets the closed pipe; buffered, the
    flush does."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if command[0] == "info":
        command = ["info", str(corpus_dir / command[1])]
    proc = subprocess.Popen(
        [sys.executable, "-m", "momentcert", *command],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()  # the reader goes away before the first line
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_certify_malformed_input(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["certify", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_auto_certify_roundtrip(corpus_dir, tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    assert main([
        "auto-certify",
        str(corpus_dir / "cp2_blowup1.json"),
        "-o",
        str(out_file),
    ]) == 0
    assert "intersection bound: 4" in capsys.readouterr().out
    assert main(["certify", str(out_file)]) == 0
    assert "result: VERIFIED" in capsys.readouterr().out


def test_auto_certify_rejects_non_monotone(corpus_dir, capsys):
    assert main(["auto-certify", str(corpus_dir / "cp2_blowup2_alpha.json")]) == 1


def test_auto_certify_rejects_a_point(tmp_path, capsys):
    doc = tmp_path / "point.json"
    doc.write_text(json.dumps({"dim": 0, "facets": []}), encoding="utf-8")
    assert main(["auto-certify", str(doc)]) == 1
    assert "NotMonotoneError: weights need at least one facet" in capsys.readouterr().err


def test_probe_command(corpus_dir, capsys):
    assert main([
        "probe",
        str(corpus_dir / "nonfano_pentagon.json"),
        "--point",
        "3/2,0",
        "--bound",
        "3",
    ]) == 0
    assert "no probe" in capsys.readouterr().out
    assert main([
        "probe",
        str(corpus_dir / "simplex2.json"),
        "--point=-1/2,0",
        "--bound",
        "1",
    ]) == 0
    assert "displaceable" in capsys.readouterr().out


def test_probe_names_the_facet_by_its_index_in_the_file(corpus_dir, capsys):
    # the pentagon's file order is not canonical: the base (-1, 1/2) lies on
    # file facet 0, +1 x1 + 1 >= 0, which is facet 4 in canonical order
    path = str(corpus_dir / "nonfano_pentagon.json")
    assert main(["probe", path, "--point=-3/4,0", "--bound", "2"]) == 0
    assert capsys.readouterr().out.startswith(
        "displaceable: facet 0, direction (1, -2), base (-1, 1/2)\n"
    )
    assert main(["info", path]) == 0
    assert "facets: 5\n  +1 x1 + 1 >= 0\n" in capsys.readouterr().out


def test_probe_reads_a_negative_point_in_either_form(corpus_dir, capsys):
    outputs = []
    for point_args in (["--point", "-1/2,0"], ["--point=-1/2,0"]):
        assert main(["probe", str(corpus_dir / "simplex2.json"), *point_args, "--bound", "1"]) == 0
        outputs.append(capsys.readouterr().out)
    assert "displaceable" in outputs[0]
    assert outputs[0] == outputs[1]


def test_certify_rejects_runaway_nesting(tmp_path, capsys):
    # written out by hand: json.dumps itself cannot nest 600 levels
    leaf = json.dumps({"base": "cp1", "instance": load_doc("segment")})
    tree = '{"product": [' * 600 + leaf + "]}" * 600
    path = tmp_path / "deep.json"
    path.write_text(f'{{"claim": {{"kind": "TT"}}, "tree": {tree}}}')
    assert main(["certify", str(path)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_render_is_byte_stable(corpus_dir, tmp_path, capsys):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    assert main(["render", str(corpus_dir / "cp2_blowup2_alpha.json"), "-o", str(a)]) == 0
    assert main(["render", str(corpus_dir / "cp2_blowup2_alpha.json"), "-o", str(b)]) == 0
    content = a.read_bytes()
    assert content == b.read_bytes()
    text = content.decode()
    assert text.startswith("<svg")
    assert "cross" not in text  # no stray labels; markers only
    for banned in ("date", "time"):
        assert banned not in text


def test_render_unbounded(corpus_dir, tmp_path):
    out = tmp_path / "wedge.svg"
    assert main(["render", str(corpus_dir / "o_minus_one.json"), "-o", str(out)]) == 0
    assert out.read_text().startswith("<svg")


# SHA-256 of render_svg on each 2-dimensional corpus polytope with its marked
# points, as the render command draws it: a change in ring order, rounding or
# layout changes a hash
RENDER_SHA256 = {
    "cp2_blowup1": "bf8dd7b52d795eb8e86c2ab5ddd911c168768d72fd62d7f9480a3e964bfd786d",
    "cp2_blowup2_alpha": "00fb52eea672ef22459cc4b02c2ca7a967702ea27da35b45040da85b750913ea",
    "hexagon": "9831ab0b9ff132565cd06bf4fce840d1bde4bf14f2e81836b80fd4779190c96f",
    "hirzebruch2": "2548298fd9c0ac4d090f087855fdc01096d6480f7d9824add0933794bda6dd40",
    "nonfano_pentagon": "c9802f4e84897867779afbc29572a859e5a323733dc2b9703acceb499c9594ff",
    "o_minus_one": "1517e2019422e6fa410c649c59f3cb994c640b418bfdf8aa9af3a6b3c1387190",
    "simplex2": "0284dff9629691cb3fad970f94c730812d6d62d77441cda5a8b07975ae58e1d1",
    "square": "20349cdbc7e30f34d236bcc3cef4f3bc92ad95babd9fd206424b40c2a9981bab",
    "wp112": "11584428a2cf3bb711a28b880346de995be6b11dc46ebd456a8ecb6be081dcb3",
}


def test_render_bytes_are_pinned_for_every_corpus_polygon():
    hashes = {}
    for name in corpus.data_names():
        doc = load_doc(name.removesuffix(".json"))
        if doc.get("dim") != 2 or "facets" not in doc:
            continue
        svg = render_svg(polytope_from_doc(doc, name), marked_points_from_doc(doc, name))
        hashes[name.removesuffix(".json")] = hashlib.sha256(svg.encode()).hexdigest()
    assert hashes == RENDER_SHA256


def _cross_cmp(a, b):
    """Counterclockwise order from angle 0 by half-plane, then by cross product."""
    def half(d):
        return 0 if d[1] > 0 or (d[1] == 0 and d[0] > 0) else 1

    if half(a) != half(b):
        return half(a) - half(b)
    cross = a[0] * b[1] - a[1] * b[0]
    return -1 if cross > 0 else int(cross < 0)


def test_angle_key_orders_as_the_cross_product_does():
    """Same order, ties on one ray included, as the comparator the key replaced."""
    rng = random.Random(31)
    ties = 0
    for _ in range(3000):
        ds = {(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
               Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(rng.randint(2, 9))}
        ds = list(ds - {(0, 0)})
        expected = sorted(ds, key=cmp_to_key(_cross_cmp))
        assert sorted(ds, key=lambda d: _angle_key(*d)) == expected
        ties += any(_cross_cmp(a, b) == 0 for a, b in zip(expected, expected[1:]))
    assert ties > 500


def test_render_strip_draws_its_two_lines_only():
    # no vertices and no center, so the box comes from the default anchors
    svg = render_svg(polytope_from_doc(STRIP))
    assert svg.count("<line ") == 2
    assert "<polygon" not in svg and "<circle" not in svg


def test_render_skips_a_facet_line_that_misses_the_box():
    square = polytope(2, list(cube(2).facets) + [((1, 0), 100)])
    svg = render_svg(square)
    assert svg.count("<line ") == 4
    assert svg.count("<polygon ") == 1 and svg.count("<circle ") == 4


def test_render_takes_integer_marked_points():
    """Integer anchors make an integer extent; the box is still exact."""
    strip = polytope(2, [((1, 0), 1), ((-1, 0), 1)])
    svg = render_svg(strip, [(0, 0), (4, 3)])
    assert svg == fraction_render_svg(strip, [(Fraction(0), Fraction(0)), (Fraction(4), Fraction(3))])
    assert svg.count("<path ") == 2 and svg.count("<line ") == 2


def test_render_reads_marked_points_in_every_exact_form():
    expected = fraction_render_svg(cube(2), [(Fraction(1, 2), Fraction(-3, 4))])
    for point in ((Fraction(1, 2), Fraction(-3, 4)), ("1/2", "-3/4"), ("0.5", Fraction(-3, 4))):
        assert render_svg(cube(2), [point]) == expected


@pytest.mark.parametrize("point, named", [((0.1, 0.2), "0.1"), ((0, 0.5), "0.5")])
def test_render_refuses_a_float_marked_point(point, named):
    with pytest.raises(MomentcertError, match=f"marked point coordinate {named} is not exact"):
        render_svg(cube(2), [point])


@pytest.mark.parametrize("point, named", [((0, 0, 5), r"\(0, 0, 5\) has length 3"),
                                          ((0,), r"\(0,\) has length 1")])
def test_render_refuses_a_marked_point_of_another_length(point, named):
    """A marked point must have two coordinates: a third is not dropped,
    and a missing one is not a bare IndexError."""
    with pytest.raises(MomentcertError, match=f"^marked point {named}, expected 2$"):
        render_svg(cube(2), [point])


def fractions_built(call):
    """How many Fractions call() constructs, counted at Fraction.__new__."""
    code, built = Fraction.__new__.__code__, 0

    def profile(frame, event, arg):
        nonlocal built
        built += event == "call" and frame.f_code is code

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return built


@pytest.mark.parametrize("name", ["hexagon", "nonfano_pentagon", "o_minus_one"])
def test_render_builds_fractions_only_to_read_its_anchors(name):
    """Past the polytope's own vertices, center and compactness test,
    render_svg builds two Fractions per marked point (reading it) and one
    per ring vertex (its angle key): nothing for the box, the clipped lines
    or the canvas."""
    doc = load_doc(name)
    p, marked = polytope_from_doc(doc, name), marked_points_from_doc(doc, name)
    own = fractions_built(lambda: (p.vertices(), equidistant_point(p), p.is_compact()))
    ring = len(p.vertices()) if p.is_compact() else 0
    assert fractions_built(lambda: render_svg(p, marked)) <= own + 2 * len(marked) + ring
    assert fractions_built(lambda: fraction_render_svg(p, marked)) > 4 * own


def _fraction_clip(normal, offset, box):
    """Endpoints of {<x, normal> + offset = 0} clipped to the box, or None."""
    (x0, x1), (y0, y1) = box
    a, b = normal
    points = []
    # intersect with the four box edges
    if a != 0:
        for y in (y0, y1):
            x = Fraction(-offset - b * y, a)
            if x0 <= x <= x1:
                points.append((x, y))
    if b != 0:
        for x in (x0, x1):
            y = Fraction(-offset - a * x, b)
            if y0 <= y <= y1:
                points.append((x, y))
    points = sorted(set(points))
    if len(points) < 2:
        return None
    return points[0], points[-1]


def fraction_box(p, marked_points):
    """The drawn box in Fraction arithmetic: the anchors' bounding box
    padded by a quarter of its larger extent (at least 1)."""
    anchors = [v.point for v in p.vertices()] + [tuple(pt) for pt in marked_points]
    center = equidistant_point(p)
    if center is not None:
        anchors.append(center[0])
    if not anchors:
        anchors = [(Fraction(-1), Fraction(-1)), (Fraction(1), Fraction(1))]
    xs = [a[0] for a in anchors]
    ys = [a[1] for a in anchors]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    extent = max(hi_x - lo_x, hi_y - lo_y, Fraction(1))
    pad = extent * 1 / 4
    return ((lo_x - pad, hi_x + pad), (lo_y - pad, hi_y + pad))


def fraction_render_svg(p, marked_points=()):
    """render_svg as drawn in Fraction arithmetic, the reference for the
    integer geometry: marked points must be Fractions here."""
    vertices = [v.point for v in p.vertices()]
    box = fraction_box(p, marked_points)
    span = max(box[0][1] - box[0][0], box[1][1] - box[1][0])
    scale = Fraction(480) / span

    def to_canvas(pt):
        x = (pt[0] - box[0][0]) * scale
        y = Fraction(480) - (pt[1] - box[1][0]) * scale
        return float(x), float(y)

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="480" height="480" '
        'viewBox="0 0 480 480">',
        '<rect x="0" y="0" width="480" height="480" fill="#ffffff"/>',
    ]
    for f in sorted(p.facets):
        seg = _fraction_clip(f.normal, f.offset, box)
        if seg is None:
            continue
        (ax, ay), (bx, by) = to_canvas(seg[0]), to_canvas(seg[1])
        lines.append(
            f'<line x1="{ax:.2f}" y1="{ay:.2f}" x2="{bx:.2f}" y2="{by:.2f}" '
            f'stroke="#888888" stroke-width="1"/>'
        )
    if len(vertices) >= 3 and p.is_compact():
        cx = sum(v[0] for v in vertices) / len(vertices)
        cy = sum(v[1] for v in vertices) / len(vertices)
        ring = sorted(vertices, key=lambda v: _angle_key(v[0] - cx, v[1] - cy))
        path = " ".join("{:.2f},{:.2f}".format(*to_canvas(v)) for v in ring)
        lines.append(
            f'<polygon points="{path}" fill="none" stroke="#000000" stroke-width="2"/>'
        )
    for v in vertices:
        x, y = to_canvas(v)
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#000000"/>')
    for pt in marked_points:
        x, y = to_canvas(tuple(pt))
        lines.append(
            f'<path d="M {x - 5:.2f} {y:.2f} L {x + 5:.2f} {y:.2f} '
            f'M {x:.2f} {y - 5:.2f} L {x:.2f} {y + 5:.2f}" '
            f'stroke="#cc0000" stroke-width="2"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _primitive(rng):
    while True:
        nu = rng.randint(-3, 3), rng.randint(-3, 3)
        if lattice.is_primitive(nu):
            return nu


def _rational(rng, top):
    return Fraction(rng.randint(-top, top), rng.randint(1, 7))


def _render_case(rng):
    """A seeded polygon (compact, unbounded or a strip, perhaps with a far
    facet or a facet through a corner of its box) and marked points, each
    coordinate an int, a Fraction or a 'p/q' string."""
    marked = [(_rational(rng, 12), _rational(rng, 12)) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.3:
        marked = [tuple(Fraction(x.numerator) for x in pt) for pt in marked]
    if rng.random() < 0.15:
        nu = _primitive(rng)
        facets = [(nu, abs(_rational(rng, 6)) + 1), (lattice.neg(nu), abs(_rational(rng, 6)) + 1)]
    else:
        facets = {}
        while len(facets) < rng.randint(2, 7):
            facets[_primitive(rng)] = abs(_rational(rng, 9)) + Fraction(1, 3)
        facets = list(facets.items())
    p = polytope(2, facets)
    extra = rng.random()
    if extra < 0.2:  # a facet whose line misses the box
        p = polytope(2, facets + [(_primitive(rng), Fraction(rng.randint(200, 400), rng.randint(1, 3)))])
    elif extra < 0.5:  # a facet through a box corner, the box on its inner side
        (x0, x1), (y0, y1) = fraction_box(p, marked)
        sx, sy = rng.choice(((1, 1), (-1, 1), (1, -1), (-1, -1)))
        corner = (x0 if sx > 0 else x1, y0 if sy > 0 else y1)
        nu = rng.choice(((sx, 0), (0, sy), (sx, sy), (sx, 2 * sy), (3 * sx, sy)))
        offset = -lattice.dot(nu, corner)
        if (nu, offset) not in facets:
            p = polytope(2, facets + [(nu, offset)])
    forms = (lambda x: x, str, lambda x: x.numerator if x.denominator == 1 else x)
    return p, marked, [tuple(rng.choice(forms)(x) for x in pt) for pt in marked]


def test_render_matches_the_fraction_geometry_on_seeded_polygons():
    """Byte for byte the SVG the Fraction geometry draws, on compact and
    unbounded polygons, strips with no vertex and no center, lines that miss
    the box or pass through its corner, and marked points read from ints,
    Fractions and strings."""
    rng = random.Random(3901)
    seen = dict.fromkeys(("compact", "unbounded", "strip", "misses the box",
                          "through a corner", "int", "Fraction", "str"), 0)
    for _ in range(1200):
        p, marked, given = _render_case(rng)
        assert render_svg(p, given) == fraction_render_svg(p, marked), (p.facets, given)
        seen["compact" if p.is_compact() else "unbounded"] += 1
        seen["strip"] += not p.vertices() and equidistant_point(p) is None
        corners = list(iter_product(*fraction_box(p, marked)))
        for f in p.facets:
            values = [lattice.dot(f.normal, c) + f.offset for c in corners]
            seen["misses the box"] += min(values) > 0 or max(values) < 0
            seen["through a corner"] += 0 in values
        for x in (x for pt in given for x in pt):
            seen[type(x).__name__] += 1
    assert all(count >= 50 for count in seen.values()), seen


def test_corpus_run_has_no_color_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "run", "--color"])
    assert exc.value.code == 2
    assert "--color" in capsys.readouterr().err


def test_corpus_run_all_green(capsys):
    assert main(["corpus", "run"]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "passed" in out
    assert "FAIL" not in out


def test_corpus_run_prints_the_pinned_table(capsys):
    """All 48 rows (case, check, expected, computed, status) and the final
    line, byte for byte."""
    golden = (Path(__file__).resolve().parent / "golden" / "corpus_run.txt").read_text(encoding="utf-8")
    assert main(["corpus", "run"]) == 0
    out = capsys.readouterr().out
    assert out == golden
    lines = out.splitlines()
    assert len(lines[:lines.index("")]) == 48 and lines[-1] == "all 48 checks passed"


def test_corpus_run_reports_a_family_check_that_goes_the_wrong_way(capsys, monkeypatch):
    # lam = 1/2 is outside the interval, so this row gets a mismatch where it
    # expects a bound; the table must still be printed whole
    monkeypatch.setattr(corpus, "BLOWUP2_OK", (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)))
    assert main(["corpus", "run"]) == 1
    lines = capsys.readouterr().out.splitlines()
    table = lines[:lines.index("")]
    assert len(table) == 48
    failed = [line for line in table if line.endswith("FAIL")]
    assert len(failed) == 1
    assert failed[0].startswith("blowup2 lam=1/2 ") and "mismatch" in failed[0]
    assert lines[-1] == "1 of 48 checks failed"


def test_module_entry_point_lists_the_corpus():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "momentcert", "corpus", "list"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == list(corpus.data_names())


def test_corpus_export_lists_the_data_directory_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = corpus.data_names
    monkeypatch.setattr(corpus, "data_names", lambda: calls.append(1) or original())
    assert main(["corpus", "export", "-o", str(tmp_path)]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == f"exported 32 files to {tmp_path}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == list(original())


def test_corpus_list(capsys):
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    assert "hexagon.json" in out
    assert "cp4_tr.json" in out
