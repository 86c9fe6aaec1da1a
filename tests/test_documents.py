import json
from fractions import Fraction as F
from importlib import resources

import pytest

from momentcert.certificate import TT, Certificate, verify
from momentcert.corpus import data_names, load_doc
from momentcert.documents import (
    MAX_DEPTH,
    certificate_from_doc,
    certificate_to_doc,
    load_json,
    parse_rational,
    polytope_from_doc,
    polytope_to_doc,
    rational_to_json,
    section_from_doc,
    section_to_doc,
)
from momentcert.errors import DocumentError
from momentcert.polytope import polytope
from momentcert.reduction import cp1, section


def test_rational_parsing():
    assert parse_rational(3, "x") == 3
    assert parse_rational("5/4", "x") == F(5, 4)
    assert parse_rational("-7/2", "x") == F(-7, 2)
    with pytest.raises(DocumentError):
        parse_rational(0.5, "x")
    with pytest.raises(DocumentError):
        parse_rational("5/0", "x")
    with pytest.raises(DocumentError):
        parse_rational(True, "x")
    assert parse_rational("1.25", "x") == F(5, 4)
    for text in ("1e3", "2.5E-1", "1e3000000"):
        with pytest.raises(DocumentError, match="exponent"):
            parse_rational(text, "x")


def test_rational_serialization():
    assert rational_to_json(F(4, 2)) == 2
    assert rational_to_json(F(5, 4)) == "5/4"


def test_polytope_roundtrip():
    p = polytope(2, [((1, 0), 1), ((0, 1), "5/4"), ((-1, -1), F(1, 2))])
    doc = polytope_to_doc(p, name="sample")
    again = polytope_from_doc(doc)
    assert again == p
    assert polytope_to_doc(again, name="sample") == doc


def test_polytope_doc_errors():
    with pytest.raises(DocumentError):
        polytope_from_doc({"facets": []})
    with pytest.raises(DocumentError):
        polytope_from_doc({"dim": 1, "facets": [{"normal": [1]}]})
    with pytest.raises(DocumentError):
        polytope_from_doc({"dim": 1, "facets": [{"normal": [1], "offset": 0.5}]})
    with pytest.raises(DocumentError) as err:
        polytope_from_doc({"dim": 2, "facets": [{"normal": [2, 4], "offset": 1}, {"normal": [0, 1], "offset": 1}]})
    assert "primitive" in str(err.value)


def test_section_roundtrip():
    sec = section([(1, 0), (0, 1), (1, 1)], base=(F(1, 2), 0, 0))
    doc = section_to_doc(sec)
    assert section_from_doc(doc) == sec
    assert section_to_doc(section_from_doc(doc)) == doc


def test_certificate_roundtrip_all_corpus_files():
    for name in data_names():
        doc = load_doc(name.removesuffix(".json"))
        if "tree" not in doc:
            continue
        cert = certificate_from_doc(doc)
        doc2 = certificate_to_doc(cert)
        assert certificate_from_doc(doc2) == cert


def test_certificate_doc_errors():
    with pytest.raises(DocumentError):
        certificate_from_doc({"tree": {"base": "cp1"}})
    with pytest.raises(DocumentError):
        certificate_from_doc({"claim": {"kind": "XX"}, "tree": {}})
    with pytest.raises(DocumentError):
        certificate_from_doc({"claim": {"kind": "TT"}, "tree": {"base": "nope", "instance": {}}})
    with pytest.raises(DocumentError):
        certificate_from_doc({"claim": {"kind": "TT"}, "tree": {"product": []}})
    with pytest.raises(DocumentError, match=r"^certificate\.tree: expected an object$"):
        certificate_from_doc({"claim": {"kind": "TT"}, "tree": []})
    with pytest.raises(DocumentError, match="^cannot serialize node object$"):
        certificate_to_doc(Certificate(object(), TT))


def test_bundled_files_are_written_as_corpus_export_writes_them():
    # so an exported corpus equals the shipped one, and a hand edit cannot drift
    for name in data_names():
        text = (resources.files("momentcert") / "data" / name).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n", name


def test_load_json_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"dim\": 2,\n  oops\n}\n", encoding="utf-8")
    with pytest.raises(DocumentError) as err:
        load_json(bad)
    assert "3" in str(err.value)  # line number of the defect


def nested_products(levels: int) -> dict:
    node = {"base": "cp1", "instance": polytope_to_doc(cp1())}
    for _ in range(levels):
        node = {"product": [node]}
    return {"claim": {"kind": "TT"}, "tree": node}


def test_certificate_depth_is_bounded():
    assert verify(certificate_from_doc(nested_products(MAX_DEPTH))).bound == 2
    with pytest.raises(DocumentError, match="nested deeper"):
        certificate_from_doc(nested_products(MAX_DEPTH + 1))


def test_load_json_rejects_runaway_nesting(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(DocumentError, match="nested too deeply"):
        load_json(path)


def test_marked_points_parse():
    doc = load_doc("cp2_blowup2_alpha")
    from momentcert.documents import marked_points_from_doc

    points = marked_points_from_doc(doc)
    assert (F(0), F(-1, 4)) in points
