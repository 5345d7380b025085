import gc
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsplines import SchemaError, verify_certificate
from gsplines.formats import certificate_to_json, dump_json, graph_from_json, load_graph, load_opens
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
