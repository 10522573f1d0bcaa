from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from singlat import (InputError, ParseError, RatCycle, catalog, catalog_names,
                     catalog_source, cli, dual_cycle, intersection_matrix,
                     is_negative_definite, lattice_determinant, parse, serialize,
                     verify_all)
from singlat.dsl import CycleDef, GraphDocument
from singlat.graph import Vertex


def test_parse_minimal():
    doc = parse("graph A1\nvertex v euler=-2\n")
    assert doc.name == "A1"
    assert doc.vertices == (Vertex("v", -2, 0),)
    assert doc.graph().ids == ("v",)


def test_parse_comments_and_whitespace():
    doc = parse("# heading\n  vertex   v   euler=-2   # trailing\n\n")
    assert doc.name is None
    assert doc.vertices[0].euler == -2


def test_parse_genus_default_and_explicit():
    doc = parse("vertex a euler=-3 genus=2")
    assert doc.vertices[0].genus == 2


def test_parse_cycles():
    doc = parse("vertex a euler=-2\nvertex b euler=-2\nedge a b\n"
                "cycle half E: a=1/2 b=3\ncycle dual Edual: a=2\n")
    assert doc.cycle("half") == RatCycle({"a": Fraction(1, 2), "b": 3})
    g = doc.graph()
    assert doc.cycle("dual") == 2 * dual_cycle(g, "a")
    with pytest.raises(InputError):
        doc.cycle("missing")


@pytest.mark.parametrize("source, fragment", [
    ("vertex v euler=-2\nedge v v\n", "loop"),
    ("vertex v euler=-2\nvertex v euler=-3\n", "duplicate vertex"),
    ("vertex v euler=-2\nedge v w\n", "unknown vertex"),
    ("vertex v\n", "euler"),
    ("vertex v genus=1\n", "missing euler"),
    ("vertex v euler=x\n", "invalid integer"),
    ("vertex v euler=-2 genus=-1\n", "genus"),
    ("frobnicate v\n", "unknown statement"),
    ("graph a\ngraph b\nvertex v euler=-2\n", "duplicate graph"),
    ("vertex a euler=-2\ncycle c Q: a=1\n", "basis marker"),
    ("vertex a euler=-2\ncycle c Edual: a=1/2\n", "integers"),
    ("vertex a euler=-2\nvertex b euler=-2\n", "not connected"),
    ("vertex v euler=-2 euler=-3\n", r"line 1, column 19: repeated vertex attribute 'euler'"),
    ("vertex v euler=-2 genus=1 genus=2\n",
     r"line 1, column 27: repeated vertex attribute 'genus'"),
    ("vertex a euler=-2\ncycle x E: a=1 a=2\n", r"line 2, column 16: vertex 'a' repeated in cycle 'x'"),
    ("vertex a euler=-2\ncycle x Edual: a=1 a=2\n",
     r"line 2, column 20: vertex 'a' repeated in cycle 'x'"),
])
def test_parse_errors(source, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse(source)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("vertex v euler=-2\nedge v v\n")
    assert err.value.line == 2
    assert err.value.column is not None


def test_round_trip_catalog():
    for name in ("paper-z7", "gamma-2-3-7", "cusp-3x3", "simply-elliptic-d3",
                 "A3", "D5", "E6", "E7", "E8"):
        doc = parse(catalog_source(name))
        assert parse(serialize(doc)) == doc


ids = st.sampled_from(["a", "b", "c", "d"])
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=9)


@st.composite
def documents(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    names = ["a", "b", "c", "d"][:n]
    vertices = tuple(Vertex(v, draw(st.integers(min_value=-9, max_value=-1)),
                            draw(st.integers(min_value=0, max_value=2)))
                     for v in names)
    edges = tuple((names[draw(st.integers(min_value=0, max_value=i - 1))], names[i])
                  for i in range(1, n))
    cycles = []
    if draw(st.booleans()):
        coeffs = tuple((v, draw(rationals)) for v in names)
        cycles.append(CycleDef("t", "E", coeffs))
    return GraphDocument(draw(st.sampled_from([None, "g1"])), vertices, edges,
                         tuple(cycles))


@given(documents())
def test_round_trip_random_documents(doc):
    assert parse(serialize(doc)) == doc


def test_serialize_deterministic():
    doc = parse(catalog_source("paper-z7"))
    assert serialize(doc) == serialize(doc)


def test_catalog_z7_matches_expected():
    g = catalog("paper-z7")
    assert g.ids == ("E1", "E2", "c", "E3", "E4", "f")
    assert lattice_determinant(g) == 7


def test_catalog_ade_determinants():
    assert lattice_determinant(catalog("A1")) == 2
    assert lattice_determinant(catalog("A5")) == 6
    assert lattice_determinant(catalog("D4")) == 4
    assert lattice_determinant(catalog("D6")) == 4
    assert lattice_determinant(catalog("E6")) == 3
    assert lattice_determinant(catalog("E7")) == 2
    assert lattice_determinant(catalog("E8")) == 1


def test_catalog_gamma_det_one():
    assert lattice_determinant(catalog("gamma-2-3-7")) == 1


def test_catalog_unknown_lists_names(capsys):
    with pytest.raises(InputError, match="paper-z7"):
        catalog("unknown-graph")
    with pytest.raises(InputError):
        catalog("D3")  # too small for the family
    assert cli.main(["catalog"]) == 0
    assert "A<n>" in capsys.readouterr().out.splitlines()


def test_every_catalog_name_loads():
    names = catalog_names()
    assert "paper-z7" in names and "A<n>" not in names
    for name in names:
        assert is_negative_definite(intersection_matrix(catalog(name)))


def test_catalog_graphs_verify():
    for name in ("paper-z7", "gamma-2-3-7", "cusp-3x3", "simply-elliptic-d3",
                 "A2", "D4", "E6", "E8"):
        g = catalog(name)
        assert is_negative_definite(intersection_matrix(g))
        transcript = verify_all(g)
        assert transcript.passed, f"{name}:\n{transcript.to_text()}"
