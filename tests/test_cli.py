import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cmp_to_key
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
from momentcert.floer import boundary_op, rank_gf2
from momentcert.polytope import Polytope, polytope, product
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
