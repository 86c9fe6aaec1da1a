"""The bundled corpus loaders: one shared object per name, built from a
fresh document, and deeply immutable so that sharing it is safe."""

from collections import Counter
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction

import pytest

from momentcert import corpus
from momentcert.documents import polytope_from_doc
from momentcert.errors import DocumentError
from momentcert.reduction import cp1


@pytest.fixture()
def doc_loads(monkeypatch):
    """A Counter of the names passed to corpus.load_doc."""
    seen = Counter()
    original = corpus.load_doc

    def counted(name):
        seen[name] += 1
        return original(name)

    monkeypatch.setattr(corpus, "load_doc", counted)
    return seen


def test_run_reads_each_document_once_per_process(fresh_corpus, doc_loads):
    rows = corpus.run()
    assert len(doc_loads) == 30
    assert set(doc_loads.values()) == {1}
    doc_loads.clear()
    assert corpus.run() == rows
    assert doc_loads == Counter()


def test_load_doc_returns_a_new_dict_each_call(fresh_corpus):
    p = corpus.load_corpus_polytope("hexagon")
    doc = corpus.load_doc("hexagon")
    assert corpus.load_doc("hexagon") is not doc
    doc["dim"] = 3
    doc["facets"].pop()
    again = corpus.load_doc("hexagon")
    assert again["dim"] == 2 and len(again["facets"]) == 6
    assert corpus.load_corpus_polytope("hexagon") is p
    assert p == polytope_from_doc(again)


@pytest.mark.parametrize("loader", [
    corpus.load_corpus_polytope, corpus.load_corpus_section, corpus.load_corpus_certificate,
])
def test_a_failed_load_is_not_cached(fresh_corpus, doc_loads, loader):
    for _ in range(2):
        with pytest.raises(DocumentError, match="no_such_file"):
            loader("no_such_file")
    assert doc_loads == Counter({"no_such_file": 2})


def loader_for(doc):
    if "claim" in doc:
        return corpus.load_corpus_certificate
    if "A" in doc:
        return corpus.load_corpus_section
    return corpus.load_corpus_polytope


ATOMS = (int, Fraction, str, bool, type(None))


def assert_deeply_immutable(value, where):
    """Only frozen dataclasses holding nothing but their fields, NamedTuples,
    tuples, frozensets and the ATOMS may appear anywhere in value."""
    if is_dataclass(value):
        assert type(value).__dataclass_params__.frozen, where
        names = [f.name for f in fields(value)]
        assert sorted(vars(value)) == sorted(names), where
        for name in names:
            assert_deeply_immutable(getattr(value, name), f"{where}.{name}")
    elif isinstance(value, (tuple, frozenset)):
        assert type(value) in (tuple, frozenset) or hasattr(type(value), "_fields"), where
        for i, item in enumerate(value):
            assert_deeply_immutable(item, f"{where}[{i}]")
    else:
        assert type(value) in ATOMS, f"{where}: {type(value).__name__}"


def test_every_bundled_object_is_deeply_immutable():
    names = [n.removesuffix(".json") for n in corpus.data_names()]
    assert len(names) == 32
    kinds = Counter()
    for name in names:
        loader = loader_for(corpus.load_doc(name))
        kinds[loader.__name__] += 1
        assert_deeply_immutable(loader(name), name)
    assert kinds == Counter(
        load_corpus_polytope=18, load_corpus_section=7, load_corpus_certificate=7
    )


@dataclass
class Loose:
    x: int


def test_the_immutability_walk_refuses_a_mutable_part():
    cached = cp1()
    object.__setattr__(cached, "_cache", ())  # an attribute that is no field
    for bad in ([1], {1: 2}, {1}, 1.5, bytearray(b"x"), Loose(1), cached):
        with pytest.raises(AssertionError):
            assert_deeply_immutable((Fraction(1), bad), "value")
    assert_deeply_immutable((Fraction(1), cp1()), "value")
