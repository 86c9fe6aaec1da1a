import json

import pytest

from momentcert.cli import main
from momentcert.corpus import load_corpus_polytope, load_doc
from momentcert.documents import save_json
from momentcert.floer import boundary_op, rank_gf2
from momentcert.polytope import product


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


@pytest.mark.parametrize("name", ["segment", "simplex2", "simplex3", "hexagon", "cp2_blowup1", "cube"])
def test_hf_command_counts_match_the_operator(corpus_dir, capsys, name):
    p = load_corpus_polytope(name)
    rank, nullity = rank_gf2(boundary_op(p if p.is_even() else product(p, p)))
    assert main(["hf", str(corpus_dir / f"{name}.json")]) == 0
    assert f"nullity {nullity}, rank {rank})" in capsys.readouterr().out


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


def test_reduce_inline_slice(corpus_dir, capsys):
    assert main([
        "reduce",
        str(corpus_dir / "cube.json"),
        "--slice",
        '{"A": [[1, 0], [0, 1], [1, 1]], "x0": [0, 0, 0]}',
    ]) == 0
    assert "facets: 6" in capsys.readouterr().out


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


def test_corpus_run_all_green(capsys):
    assert main(["corpus", "run"]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "passed" in out
    assert "FAIL" not in out


def test_corpus_list(capsys):
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    assert "hexagon.json" in out
    assert "cp4_tr.json" in out
