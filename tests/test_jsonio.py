import json
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from singlat import (InputError, RatCycle, catalog, class_group, classify_singularity,
                     flat_annotation, full_sheaf_classes_rational, fundamental_cycle,
                     verify_all)
from singlat.cli import format_cycle
from singlat.jsonio import Numerators, dumps, encode_numerators, encode_rational, to_json
from singlat.schema import validate

from conftest import graph


def test_zero_cycle_on_a1():
    g = graph([("v", -2)])
    doc = json.loads(to_json(RatCycle.zero(), graph=g))
    assert doc["schema"] == "singlat/1"
    assert doc["coefficients"] == [{"num": "0", "den": "1"}]
    validate(doc)


def test_cycle_order_matches_vertices():
    g = catalog("paper-z7")
    dual4 = __import__("singlat").dual_cycle(g, "E4")
    doc = json.loads(to_json(dual4, graph=g))
    assert doc["vertices"] == list(g.ids)
    assert doc["coefficients"][4] == {"num": "4", "den": "7"}
    validate(doc)


def test_bare_cycle_requires_graph():
    with pytest.raises(InputError):
        to_json(RatCycle.zero())


def test_cycle_off_the_graph_is_refused():
    from singlat import ComputationSequence
    g = catalog("A2")
    off = RatCycle({"zz": 1, "v1": 1})
    for obj in (off, ComputationSequence(off, (), RatCycle.zero()),
                ComputationSequence(RatCycle.zero(), (), off)):
        with pytest.raises(InputError, match="unknown vertex id 'zz'"):
            to_json(obj, graph=g)


def test_malformed_sequence_is_refused():
    from singlat import ComputationSequence, LauferStep
    g, v1 = catalog("A2"), RatCycle.unit("v1")
    off_step = ComputationSequence(v1, (LauferStep("zz", 1),), v1)
    with pytest.raises(InputError, match="unknown vertex id 'zz'"):
        to_json(off_step, graph=g)
    half = RatCycle({"v1": "1/2"})
    for start, steps, end in ((v1, (LauferStep("v2", 1),), v1),
                              (v1, (), v1 + RatCycle.unit("v2")),
                              (half, (LauferStep("v1", 1),), half + half)):
        with pytest.raises(InputError, match="one unit per step"):
            to_json(ComputationSequence(start, steps, end), graph=g)
    seq = fundamental_cycle(catalog("D5"))
    assert json.loads(to_json(seq, graph=catalog("D5")))["type"] == "sequence"


def test_class_group_json():
    g = catalog("paper-z7")
    doc = json.loads(to_json(class_group(g)))
    assert doc["order"] == "7"
    assert doc["factors"] == ["7"]
    validate(doc)


def test_singularity_json():
    doc = json.loads(to_json(classify_singularity(catalog("gamma-2-3-7"))))
    assert doc["kind"] == "minimally-elliptic"
    validate(doc)


def test_report_json():
    g = catalog("paper-z7")
    report = flat_annotation(g, full_sheaf_classes_rational(g))
    doc = json.loads(to_json(report))
    assert doc["class_group"]["order"] == "7"
    assert len(doc["families"]) == 7
    validate(doc)


def test_vertex_table_min_rep_is_never_null():
    # every producer fills each row's minimal cycle, so the schema refuses a null one
    g = catalog("paper-z7")
    doc = json.loads(to_json(flat_annotation(g, full_sheaf_classes_rational(g))))
    assert all(row["min_rep"] for row in doc["vertex_table"])
    doc["vertex_table"][0]["min_rep"] = None
    with pytest.raises(jsonschema.ValidationError):
        validate(doc)


def test_sequence_json():
    g = catalog("paper-z7")
    doc = json.loads(to_json(fundamental_cycle(g), graph=g))
    assert doc["end"][0] == {"num": "1", "den": "1"}
    validate(doc)


def test_transcript_json():
    g = graph([("v", -2)])
    doc = json.loads(to_json(verify_all(g)))
    assert doc["passed"] is True
    validate(doc)


def test_graph_json():
    g = catalog("cusp-3x3")
    doc = json.loads(to_json(g))
    assert len(doc["vertices"]) == 3
    assert len(doc["edges"]) == 3
    validate(doc)


def test_byte_determinism():
    g = catalog("paper-z7")
    assert to_json(class_group(g)) == to_json(class_group(g))


def test_unsupported_type():
    with pytest.raises(InputError):
        to_json(object())


# Text with non-ASCII letters, quotes, backslashes and control characters.
json_text = st.text(st.sampled_from(["a", "Z", "0", " ", "é", "χ", "Ω", "\u2028", "😀",
                                     '"', "\\", "/", "\n", "\t", "\r", "\x00", "\x1f", "\x7f"]))
json_documents = st.recursive(
    st.one_of(json_text, st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(json_text, inner, max_size=4)),
    max_leaves=30)


@given(st.dictionaries(json_text, json_documents, max_size=5))
def test_dumps_writes_the_standard_indented_form(doc):
    assert dumps(doc) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def test_dumps_of_empty_containers_and_literals():
    doc = {"a": [], "b": {}, "c": [[], {}, [None, True, False]], "": {"\u00e9\"\\": "x\ny"}}
    assert dumps(doc) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    assert dumps({}) == "{}\n"


@pytest.mark.parametrize("doc", [{"x": 1.5}, {"x": [0.0]}, {"x": 3}, {"x": (1,)}, {1: "x"},
                                 {"x": {"y": object()}}, {"x": ["a", "b", 2]},
                                 {"x": {"a": "b", 1: "c"}}, {"x": {"a": "b", None: "c"}},
                                 {"x": {"a": "b", "c": 1}}])
def test_dumps_refuses_numbers_and_other_types(doc):
    with pytest.raises(TypeError):
        dumps(doc)


def ratcycle_format(g, cycle):
    """The text writer of cycles before it took numerators, kept as a reference."""
    if not cycle:
        return "0"
    terms = []
    for vid in g.ids:
        q = cycle.coefficient(vid)
        if q:
            terms.append(vid if q == 1 else f"{q}*{vid}")
    return " + ".join(terms)


@st.composite
def numerators(draw, min_size=1):
    scale = draw(st.integers(1, 30))
    entry = st.one_of(st.integers(-90, 90), st.sampled_from((0, scale, -scale)))
    return draw(st.lists(entry, min_size=min_size, max_size=6)), scale


def expand(value):
    """The document of dicts that `dumps` reads a document of leaves as:
    each leaf becomes its list of lowest-terms {"num", "den"} dicts."""
    if isinstance(value, Numerators):
        vec, scale = value
        return [encode_rational(Fraction(x, scale)) for x in vec]
    if isinstance(value, dict):
        return {key: expand(item) for key, item in value.items()}
    if isinstance(value, list):
        return [expand(item) for item in value]
    return value


# Leaves at every depth, next to lists and dicts of strings only.
leaf_documents = st.recursive(
    st.one_of(json_text, st.booleans(), st.none(),
              numerators(min_size=0).map(lambda pair: encode_numerators(*pair))),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(json_text, inner, max_size=4),
                            st.lists(json_text, max_size=4),
                            st.dictionaries(json_text, json_text, max_size=4)),
    max_leaves=30)


@given(st.dictionaries(json_text, leaf_documents, max_size=5))
@example({"empty": encode_numerators([], 5), "one": encode_numerators([1, -1, 0], 1),
          "units": [encode_numerators([7, -7, 14, 0, -3], 7)]})
def test_dumps_writes_leaves_as_their_expansion(doc):
    assert dumps(doc) == json.dumps(expand(doc), indent=2, ensure_ascii=False) + "\n"


@given(numerators())
@example(([1, 0, -3, 1], 1))
@example(([0, 0], 7))
@example(([6, -4, 12, 5], 6))
def test_numerator_writers_match_fractions(vec_scale):
    vec, scale = vec_scale
    leaf = encode_numerators(vec, scale)
    assert json.loads(dumps({"c": leaf}))["c"] == [encode_rational(Fraction(x, scale)) for x in vec]
    g = catalog(f"A{len(vec)}")
    cycle = RatCycle(zip(g.ids, (Fraction(x, scale) for x in vec)))
    assert format_cycle(g, vec, scale) == ratcycle_format(g, cycle)


def test_encode_rational_refuses_a_float():
    with pytest.raises(TypeError, match="float 0.1"):
        encode_rational(0.1)
    with pytest.raises(TypeError, match="float"):
        encode_rational(2.0)
    assert encode_rational("0.1") == {"num": "1", "den": "10"}
    assert encode_rational(Fraction(-6, 4)) == encode_rational(Fraction(-3, 2)) == {"num": "-3", "den": "2"}
    assert encode_rational(7) == {"num": "7", "den": "1"}
