import gc
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsplines import ParseError, RingDescriptor, SchemaError, formats, verify_certificate
from gsplines.formats import (
    certificate_to_json,
    dump_json,
    factor_list,
    graph_from_json,
    graph_to_json,
    load_graph,
    load_opens,
    opens_from_json,
)
from conftest import fixture_path


# ---------------------------------------------------------------------------
# schema errors of graph documents


def _doc(*edges):
    return {"ring": {"kind": "Int"}, "vertices": ["u", "v"], "edges": list(edges)}


def _edge(label):
    return {"ends": ["u", "v"], "label": label}


FACTOR_ITEM = 'edges[0]: each factor must be ["text", multiplicity]'

SCHEMA_ERRORS = [
    ([], "the graph document must be a JSON object"),
    ({"ring": {"kind": "Int"}, "vertices": ["u"], "junk": 1}, "unknown field(s) ['junk'] in the graph document"),
    ({"vertices": ["u"]}, "missing 'ring'"),
    ({"ring": {"kind": "Int"}}, "missing 'vertices'"),
    ({"ring": {"kind": "Int"}, "vertices": ["u", 1]}, "'vertices' must be a list of names"),
    ({"ring": {"kind": "Int"}, "vertices": ["u"], "edges": {}}, "'edges' must be a list"),
    # an edge that is not an object; the index names the failing edge
    (_doc(["u", "v"]), "edges[0] must be an object"),
    (_doc(_edge({"factors": [["3", 1]]}), "uv"), "edges[1] must be an object"),
    # unknown edge and label keys, listed sorted
    (_doc({"ends": ["u", "v"], "label": {"zero": True}, "weight": 1}), "unknown field(s) ['weight'] in edges[0]"),
    (_doc({"ends": ["u", "v"], "label": {"zero": True}, "b": 1, "a": 2}), "unknown field(s) ['a', 'b'] in edges[0]"),
    (_doc(_edge({"factors": [["3", 1]], "weight": 1})), "unknown field(s) ['weight'] in edges[0]"),
    # bad ends
    (_doc({"label": {"zero": True}}), "edges[0]: 'ends' must be a pair of vertex names"),
    (_doc({"ends": "uv", "label": {"zero": True}}), "edges[0]: 'ends' must be a pair of vertex names"),
    (_doc({"ends": ["u"], "label": {"zero": True}}), "edges[0]: 'ends' must be a pair of vertex names"),
    (_doc({"ends": ["u", "v", "w"], "label": {"zero": True}}), "edges[0]: 'ends' must be a pair of vertex names"),
    (_doc({"ends": ["u", 2], "label": {"zero": True}}), "edges[0]: 'ends' must be a pair of vertex names"),
    # a missing label, a label that is not an object
    (_doc({"ends": ["u", "v"]}), "edges[0]: missing 'label'"),
    (_doc(_edge([["3", 1]])), "edges[0]: 'label' must be an object"),
    # a zero label that carries factors
    (_doc(_edge({"zero": True, "factors": [["3", 1]]})), "edges[0]: a zero label carries no factors"),
    # factors that are not a list (or are missing)
    (_doc(_edge({"factors": "3"})), "edges[0]: 'label.factors' must be a list"),
    (_doc(_edge({})), "edges[0]: 'label.factors' must be a list"),
    (_doc(_edge({"zero": False})), "edges[0]: 'label.factors' must be a list"),
    # each malformed [text, multiplicity] item
    (_doc(_edge({"factors": ["3"]})), FACTOR_ITEM),
    (_doc(_edge({"factors": [("3", 1)]})), FACTOR_ITEM),
    (_doc(_edge({"factors": [["3"]]})), FACTOR_ITEM),
    (_doc(_edge({"factors": [["3", 1, 1]]})), FACTOR_ITEM),
    (_doc(_edge({"factors": [[3, 1]]})), FACTOR_ITEM),
    (_doc(_edge({"factors": [["3", "1"]]})), FACTOR_ITEM),
    (_doc(_edge({"factors": [["3", 1.0]]})), FACTOR_ITEM),
    (_doc(_edge({"factors": [["3", 0]]})), FACTOR_ITEM),
    (_doc(_edge({"factors": [["3", -2]]})), FACTOR_ITEM),
    (_doc(_edge({"factors": [["3", 1], ["5", None]]})), FACTOR_ITEM),
]


@pytest.mark.parametrize("doc, message", SCHEMA_ERRORS)
def test_graph_schema_errors(doc, message):
    with pytest.raises(SchemaError) as info:
        graph_from_json(doc)
    assert str(info.value) == message


def test_residue_labels_keep_the_item_checks():
    doc = {"ring": {"kind": "ModInt", "modulus": 12}, "vertices": ["u", "v"],
           "edges": [_edge({"factors": [["3", 0]]})]}
    with pytest.raises(SchemaError) as info:
        graph_from_json(doc)
    assert str(info.value) == FACTOR_ITEM


# ---------------------------------------------------------------------------
# factor texts: parsed once per ring object


def _read(name):
    with open(fixture_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _spy_on_parses(monkeypatch):
    """The texts ``formats.parse_factor_text`` is called on, in order."""
    calls = []
    real = formats.parse_factor_text

    def spy(text, ring):
        calls.append(text)
        return real(text, ring)

    monkeypatch.setattr(formats, "parse_factor_text", spy)
    return calls


def test_each_factor_text_is_parsed_once_across_graph_opens_and_invert(monkeypatch):
    graph_doc, opens_doc = _read("hexpoly.json"), _read("hexpoly_opens.json")
    invert = ["x-3", "(x-10)^2+y^2-1", "x-11", "x-3"]
    calls = _spy_on_parses(monkeypatch)
    g = graph_from_json(graph_doc)
    opens = opens_from_json(opens_doc, g.ring)
    inverted = factor_list(invert, g.ring, "--invert")
    texts = {t for e in graph_doc["edges"] for t, _ in e["label"]["factors"]}
    texts |= {t for o in opens_doc["opens"] for t in o["invert"]} | set(invert)
    assert sorted(calls) == sorted(texts)
    # Every hexpoly label factor has multiplicity 1, so the graph's labels,
    # the opens and the --invert list hold the same Factor objects.
    by_element = {f.element: f for e in g.edges for f in e.label.factors}
    shared = [f for o in opens for f in o.invert] + list(inverted)
    assert sum(f.element in by_element for f in shared) > len(opens)
    assert all(by_element[f.element] is f for f in shared if f.element in by_element)


def test_two_loads_of_one_document_parse_twice(monkeypatch):
    doc = _read("hexpoly.json")
    calls = _spy_on_parses(monkeypatch)
    first = graph_from_json(doc)
    once = len(calls)
    second = graph_from_json(doc)
    assert once and len(calls) == 2 * once
    assert first.ring is not second.ring and first == second
    # The memo stays out of the ring's ==, hash and repr.
    fresh = RingDescriptor.rational_polynomials("x", "y")
    assert first.ring.parsed_factors and not fresh.parsed_factors
    assert (first.ring, hash(first.ring), repr(first.ring)) == (fresh, hash(fresh), repr(fresh))


LOCALIZED_AND_RESIDUE_DOCS = [
    {"ring": {"kind": "Int", "inverted": ["6", "5"]}, "vertices": ["u", "v", "w"],
     "edges": [_edge({"factors": [["6", 1], ["35", 2]]}),
               {"ends": ["v", "w"], "label": {"factors": [["3", 1], ["7", 1], ["3", 1]]}},
               {"ends": ["u", "w"], "label": {"factors": [["5", 1]]}}]},
    {"ring": {"kind": "PolyQ", "variables": ["x"], "inverted": ["x-3"]}, "vertices": ["u", "v", "w"],
     "edges": [_edge({"factors": [["x-3", 1], ["x^2+1", 1]]}),
               {"ends": ["v", "w"], "label": {"factors": [["x-5", 2], ["x-3", 1]]}}]},
    {"ring": {"kind": "ModInt", "modulus": 12}, "vertices": ["u", "v", "w"],
     "edges": [_edge({"factors": [["2", 1], ["3", 1]]}),
               {"ends": ["v", "w"], "label": {"factors": [["4", 1]]}},
               {"ends": ["u", "w"], "label": {"factors": [["0", 1]]}}]},
]


@pytest.mark.parametrize("doc", LOCALIZED_AND_RESIDUE_DOCS, ids=["Int-localized", "Qx-localized", "ModInt"])
def test_localized_and_residue_rings_load_as_with_a_fresh_parse_per_text(monkeypatch, doc):
    """The memo changes no result: the same documents loaded with every
    text parsed afresh give equal graphs, opens and factor lists."""
    texts = sorted({t for e in doc["edges"] for t, _ in e["label"]["factors"]} - {"0"})
    opens_doc = {"opens": [{"name": "U", "invert": texts[:2]}, {"name": "V", "invert": texts[1:]}]}

    def load():
        g = graph_from_json(doc)
        return g, opens_from_json(opens_doc, g.ring), factor_list(texts, g.ring, "--invert")

    got = load()
    monkeypatch.setattr(formats, "_parsed", formats.parse_factor_text)
    want = load()
    assert got == want
    assert formats.render_graph_text(got[0]) == formats.render_graph_text(want[0])
    assert graph_to_json(got[0]) == graph_to_json(want[0])


def test_a_failing_text_is_not_kept_and_names_where_it_sat():
    g = load_graph(fixture_path("hexpoly.json"))
    for where in ("--invert", "opens[2].invert", "--invert"):
        with pytest.raises(ParseError) as info:
            factor_list(["x-3", "x-"], g.ring, where)
        assert str(info.value) == (
            f"{where}: unexpected end of input at position 2 (expected a number, variable, '(' or '-')"
        )
        assert info.value.position == 2
    assert "x-" not in g.ring.parsed_factors and "x-3" in g.ring.parsed_factors


# ---------------------------------------------------------------------------
# the JSON writer

# Subclasses take the writer's isinstance fallback, past its exact-type dispatch.


class Text(str):
    pass


class Number(int):
    pass


class Mapping(dict):
    pass


class Items(list):
    pass


class Row(tuple):
    pass


# Every code point class the encoder escapes or passes through: ASCII,
# quotes and backslashes, control characters, non-ASCII and lone surrogates.
texts = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é\U0001f600'),
        st.characters(),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
    ),
    max_size=12,
)
ints = st.one_of(
    st.integers(),
    st.integers(min_value=-(10 ** 4299) + 1, max_value=10 ** 4299 - 1),
    st.just(10 ** 4299 - 1),
    st.just(-(10 ** 4299) + 1),
)
floats = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300]))
scalars = st.one_of(
    texts,
    texts.map(Text),
    ints,
    st.integers().map(Number),
    floats,
    st.booleans(),
    st.none(),
)
keys = st.one_of(texts, texts.map(Text), st.integers(), floats, st.booleans(), st.none())
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4).map(Items),
        st.lists(inner, max_size=4).map(Row),
        st.dictionaries(keys, inner, max_size=4),
        st.dictionaries(keys, inner, max_size=4).map(Mapping),
    ),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(json_values)
def test_dump_json_matches_json_dumps(obj):
    assert dump_json(obj) == json.dumps(obj, indent=2, ensure_ascii=False)


@pytest.mark.parametrize(
    "obj",
    [{}, [], (), "", 0, None, True, False, {"a": {}}, [[[]]], [{}, []],
     [[[[[[[[[[[[["deep"]]]]]]]]]]]]], {1: "a", 1.5: "b", True: "c", None: "d", "": ()}],
)
def test_dump_json_edge_cases(obj):
    assert dump_json(obj) == json.dumps(obj, indent=2, ensure_ascii=False)


def test_dump_json_past_the_digit_limit_raises_like_json_dumps():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no integer string conversion limit")
    big = 10 ** (limit + 1)
    with pytest.raises(ValueError):
        json.dumps({"x": [big]}, indent=2, ensure_ascii=False)
    with pytest.raises(ValueError):
        dump_json({"x": [big]})


def test_dump_json_leaves_no_cyclic_garbage():
    g = load_graph(fixture_path("hexpoly.json"))
    opens = load_opens(fixture_path("hexpoly_opens.json"), g.ring)
    doc = certificate_to_json(verify_certificate(g, opens), g.ring)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        text = dump_json(doc)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    with open(fixture_path("certificate_hexpoly_golden.json"), "r", encoding="utf-8") as fh:
        assert text + "\n" == fh.read()
