import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsplines import (
    Edge,
    FactoredElement,
    NoSuchEdge,
    NoSuchVertex,
    RingDescriptor,
    UnknownVertex,
    UnsupportedRing,
    connected_components,
    contract_edge,
    delete_edge,
    delete_vertex,
    enumerate_bruteforce,
    format_factored,
    make_factor,
    normalize,
    reduce_mod,
    restrict,
    trivializes,
)
from gsplines.formats import dump_json, graph_from_json, graph_to_json, render_graph_text
from gsplines.rings import canonical_key, normalized_associate
from conftest import FACTOR_TEXTS, ZZ, factored_graphs, int_graph, int_label, parse_factor


def edge_labels(g):
    return {(e.a, e.b): format_factored(e.label, g.ring) for e in g.edges}


# --- normalization -----------------------------------------------------------


def test_parallel_edges_merge_by_intersection():
    g = int_graph(["u", "v"], [("u", "v", 5), ("u", "v", 7)])
    assert edge_labels(g) == {("u", "v"): "5*7"}
    # Oracle: over Z/105 the two parallel conditions cut out exactly the
    # single condition 35 | s(u)-s(v).
    joint = {
        (a, b)
        for a in range(105)
        for b in range(105)
        if (a - b) % 5 == 0 and (a - b) % 7 == 0
    }
    merged = {
        tuple(x.value for x in s.value_tuple(("u", "v")))
        for s in enumerate_bruteforce(reduce_mod(g, 105))
    }
    assert joint == merged


def test_parallel_edges_lcm():
    g = int_graph(["u", "v"], [("u", "v", 6), ("u", "v", 4)])
    assert g.edges[0].label.expand(ZZ) == 12


def test_self_loop_dropped():
    g = int_graph(["u", "v"], [("u", "u", 3), ("u", "v", 5)])
    assert edge_labels(g) == {("u", "v"): "5"}


def test_zero_label_absorbs_in_merge():
    g = normalize(
        ZZ,
        ["u", "v"],
        [("u", "v", int_label(6)), ("u", "v", FactoredElement.zero())],
    )
    assert g.edges[0].label.is_zero


def test_unit_label_dropped():
    g = normalize(ZZ, ["u", "v"], [("u", "v", FactoredElement.unit())])
    assert not g.edges


def renormalized(g):
    return normalize(g.ring, g.vertices, [(e.a, e.b, e.label) for e in g.edges])


@settings(max_examples=150, deadline=None)
@given(factored_graphs())
def test_normalize_idempotent(g):
    assert renormalized(g) == g


@settings(max_examples=150, deadline=None)
@given(factored_graphs(), st.integers(2, 30))
def test_graph_json_round_trip(g, n):
    """Writing a graph as JSON and reading it back gives the same graph;
    integer graphs are also checked reduced modulo ``n``."""
    graphs = [g, reduce_mod(g, n)] if g.ring == ZZ else [g]
    for h in graphs:
        back = graph_from_json(json.loads(dump_json(graph_to_json(h))))
        assert back == h
        assert render_graph_text(back) == render_graph_text(h)


def test_label_texts_parse_per_document():
    """The same label text loads in each document's own ring."""
    for variables in (["x"], ["x", "y"]):
        doc = {"ring": {"kind": "PolyQ", "variables": variables}, "vertices": ["u", "v"],
               "edges": [{"ends": ["u", "v"], "label": {"factors": [["x-1", 1]]}}]}
        (edge,) = graph_from_json(doc).edges
        assert edge.label.factors[0].element.nvars == len(variables)


def test_residue_label_power_is_reduced_as_it_is_read():
    def z12(factors):
        return graph_from_json({
            "ring": {"kind": "ModInt", "modulus": 12},
            "vertices": ["u", "v"],
            "edges": [{"ends": ["u", "v"], "label": {"factors": factors}}],
        })

    assert z12([["2", 10**18]]) == z12([["4", 1]])


def test_normalize_unknown_vertex():
    with pytest.raises(UnknownVertex):
        int_graph(["u"], [("u", "zz", 3)])


# --- components --------------------------------------------------------------


def test_connected_components(triangle):
    assert len(connected_components(triangle)) == 1
    g = int_graph(["u", "v", "w", "x"], [("u", "v", 3), ("v", "w", 5), ("u", "w", 7)])
    comps = connected_components(g)
    assert [c.vertices for c in comps] == [("u", "v", "w"), ("x",)]
    empty = int_graph([], [])
    assert connected_components(empty) == []


def test_connected_components_keep_declaration_order():
    g = int_graph(
        ["a", "b", "c", "d", "e", "f"],
        [("d", "f", 3), ("b", "e", 5), ("a", "d", 7), ("c", "b", 0)],
    )
    comps = connected_components(g)
    assert [c.vertices for c in comps] == [("a", "d", "f"), ("b", "c", "e")]
    assert [[(e.a, e.b) for e in c.edges] for c in comps] == [
        [("a", "d"), ("d", "f")],
        [("b", "c"), ("b", "e")],
    ]
    rng = random.Random(29)
    for _ in range(30):
        vs = [f"v{i}" for i in range(rng.randrange(1, 8))]
        pairs = [tuple(rng.sample(vs, 2)) for _ in range(rng.randrange(0, 6))] if len(vs) > 1 else []
        g = int_graph(vs, [(a, b, 3) for a, b in pairs])
        # Oracle: grow each vertex's class to its closure under the edges.
        reach = {v: {v} for v in vs}
        for _ in vs:
            for e in g.edges:
                reach[e.a] = reach[e.b] = reach[e.a] | reach[e.b]
        firsts = [v for v in vs if min(reach[v], key=vs.index) == v]
        comps = connected_components(g)
        assert [c.vertices for c in comps] == [
            tuple(v for v in vs if v in reach[f]) for f in firsts
        ]
        assert [c.edges for c in comps] == [
            tuple(e for e in g.edges if e.a in reach[f]) for f in firsts
        ]


# --- restriction --------------------------------------------------------------


def test_restrict_triangle_single_prime(triangle):
    out = restrict(triangle, [make_factor(3, ZZ)])
    assert edge_labels(out.graph) == {("u", "w"): "7", ("v", "w"): "5"}
    assert [(e.a, e.b) for e in out.trivialized_edges] == [("u", "v")]
    assert out.classification.kind == "Other"


def test_restrict_hexchain(hexchain):
    inv = [make_factor(p, ZZ) for p in (3, 5, 2, 11, 13)]
    out = restrict(hexchain, inv)
    assert len(out.trivialized_edges) == 12
    assert out.classification.kind == "DeterminedByCycle"
    assert out.classification.cycle == ("A3", "B3", "C3", "D3", "E3", "F3")
    assert all(format_factored(e.label, out.graph.ring) == "7" for e in out.graph.edges)


def test_restrict_everything_trivializes(triangle):
    out = restrict(triangle, [make_factor(p, ZZ) for p in (3, 5, 7)])
    assert out.classification.kind == "Trivial"
    assert not out.graph.edges
    assert len(out.trivialized_edges) == 3


def test_restrict_empty_invert_is_isomorphic(triangle):
    out = restrict(triangle, [])
    assert out.graph.vertices == triangle.vertices
    assert edge_labels(out.graph) == edge_labels(triangle)
    # An unrestricted cycle is already determined by a cycle.
    assert out.classification.kind == "DeterminedByCycle"


def localized_path():
    """``u-v`` labeled 3 and ``v-w`` labeled 15 over ``Z[1/3]``."""
    ring = ZZ.localize([make_factor(3, ZZ)])
    return normalize(ring, ["u", "v", "w"], [("u", "v", int_label(3)), ("v", "w", int_label(15))])


def test_normalize_strips_the_factors_its_ring_inverts():
    # 3 is a unit over Z[1/3]: u-v imposes nothing, and v-w imposes 5.
    g = localized_path()
    assert edge_labels(g) == {("v", "w"): "5"}
    assert g.edge_generators == (5,)
    out = restrict(g, [])
    assert out.graph == g and out.trivialized_edges == ()
    assert out.classification.kind == "Other"


@st.composite
def raw_graphs(draw):
    """``(ring, vertices, edges)``: a raw description over ``Int``, ``Q[x]``
    or ``Q[x,y]`` whose labels are zero or products of ``FACTOR_TEXTS``,
    parallel edges and self-loops included, and a set of factor texts."""
    ring = draw(st.sampled_from(list(FACTOR_TEXTS)))
    texts = FACTOR_TEXTS[ring]
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    edges = []
    for _ in range(draw(st.integers(0, 6))):
        a, b = draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices))
        if draw(st.integers(0, 5)) == 0:
            label = FactoredElement.zero()
        else:
            chosen = draw(st.sets(st.sampled_from(texts), max_size=3))
            label = FactoredElement(tuple(parse_factor(t, ring, draw(st.integers(1, 2))) for t in sorted(chosen)))
        edges.append((a, b, label))
    invert = draw(st.sets(st.sampled_from(texts), max_size=3))
    return ring, vertices, edges, [parse_factor(t, ring) for t in sorted(invert)]


@settings(max_examples=200, deadline=None)
@given(raw_graphs())
def test_normalize_over_a_localization_is_restriction(case):
    # Normalizing over R[S^-1] strips the inverted factors as restricting
    # the graph normalized over R does.
    ring, vertices, edges, invert = case
    assert normalize(ring.localize(invert), vertices, edges) == restrict(
        normalize(ring, vertices, edges), invert
    ).graph


def test_restrict_modint_unsupported():
    g = reduce_mod(int_graph(["u", "v"], [("u", "v", 3)]), 6)
    with pytest.raises(UnsupportedRing):
        restrict(g, [])


def test_restrict_functorial_in_multiplicative_set():
    rng = random.Random(23)
    primes = [2, 3, 5, 7]
    for _ in range(30):
        vs = [f"v{i}" for i in range(rng.randrange(2, 6))]
        edges = []
        for _ in range(rng.randrange(1, 7)):
            a, b = rng.sample(vs, 2) if len(vs) > 1 else (vs[0], vs[0])
            n = rng.choice(primes) * rng.choice([1, rng.choice(primes)])
            edges.append((a, b, n))
        g = int_graph(vs, edges)
        s = [make_factor(p, ZZ) for p in rng.sample(primes, rng.randrange(0, 3))]
        t = [make_factor(p, ZZ) for p in rng.sample(primes, rng.randrange(0, 3))]
        two_step = restrict(restrict(g, s).graph, t).graph
        one_step = restrict(g, s + t).graph
        assert two_step == one_step


def test_restrict_edge_bijection():
    rng = random.Random(29)
    primes = [2, 3, 5]
    for _ in range(20):
        vs = [f"v{i}" for i in range(rng.randrange(2, 5))]
        edges = []
        for _ in range(rng.randrange(1, 6)):
            a, b = rng.sample(vs, 2)
            edges.append((a, b, rng.choice([0, 2, 3, 5, 6, 15])))
        g = int_graph(vs, edges)
        s = [make_factor(p, ZZ) for p in rng.sample(primes, rng.randrange(0, 3))]
        out = restrict(g, s)
        kept = {(e.a, e.b) for e in out.graph.edges}
        gone = {(e.a, e.b) for e in out.trivialized_edges}
        assert kept | gone == {(e.a, e.b) for e in g.edges}
        assert not kept & gone


def key_reference_without(label, elements, ring):
    """``label`` without the factors whose ``canonical_key`` is that of the
    normalized associate of one of ``elements``."""
    if label.is_zero:
        return label
    drop = {canonical_key(normalized_associate(x, ring.base())) for x in elements}
    return FactoredElement(tuple(f for f in label.factors if canonical_key(f.element) not in drop))


@settings(max_examples=200, deadline=None)
@given(factored_graphs(), st.data())
def test_restrict_labels_match_canonical_key_reference(g, data):
    texts = data.draw(st.sets(st.sampled_from(FACTOR_TEXTS[g.ring]), max_size=3))
    invert = [parse_factor(t, g.ring) for t in sorted(texts)]
    out = restrict(g, invert)
    kept, gone = iter(out.graph.edges), iter(out.trivialized_edges)
    for e in g.edges:
        expected = key_reference_without(e.label, [f.element for f in invert], g.ring)
        if expected.is_unit_ideal():
            assert next(gone) == e
        else:
            assert next(kept) == Edge(e.a, e.b, expected)
        assert trivializes(e.label, out.graph.ring) == expected.is_unit_ideal()
    assert next(kept, None) is None and next(gone, None) is None


# --- deletion / contraction ---------------------------------------------------


def test_delete_edge(triangle):
    g = delete_edge(triangle, "u", "v")
    assert edge_labels(g) == {("v", "w"): "5", ("u", "w"): "7"}
    assert g.vertices == triangle.vertices
    two = int_graph(["u", "v"], [("u", "v", 3)])
    assert delete_edge(two, "u", "v").edges == ()
    with pytest.raises(NoSuchEdge):
        delete_edge(delete_edge(triangle, "u", "v"), "u", "v")


def test_delete_edge_readd_reproduces(triangle):
    g = delete_edge(triangle, "u", "v")
    back = normalize(
        ZZ,
        g.vertices,
        [(e.a, e.b, e.label) for e in g.edges] + [("u", "v", int_label(3))],
    )
    assert back == renormalized(triangle)


def test_delete_vertex(triangle):
    g = delete_vertex(triangle, "w")
    assert g.vertices == ("u", "v")
    assert edge_labels(g) == {("u", "v"): "3"}
    lonely = int_graph(["u", "v", "x"], [("u", "v", 3)])
    assert delete_vertex(lonely, "x").vertices == ("u", "v")
    last = delete_vertex(delete_vertex(int_graph(["u", "v"], []), "u"), "v")
    assert last.vertices == ()
    with pytest.raises(NoSuchVertex):
        delete_vertex(triangle, "zz")


def test_contract_triangle(triangle):
    g = contract_edge(triangle, "u", "v")
    assert g.vertices == ("u~v", "w")
    assert edge_labels(g) == {("u~v", "w"): "5*7"}
    # Oracle over Z/105: splines on the contracted graph correspond to
    # triangle splines constant on {u, v}.
    contracted = {
        tuple(x.value for x in s.value_tuple(("u~v", "w")))
        for s in enumerate_bruteforce(reduce_mod(g, 105))
    }
    constant_uv = {
        (a, c)
        for a in range(105)
        for c in range(105)
        if (a - c) % 5 == 0 and (a - c) % 7 == 0  # edges v-w and u-w with s(u)=s(v)=a
    }
    assert contracted == constant_uv


def test_contract_path_and_two_vertex():
    path = int_graph(["u", "v", "w"], [("u", "v", 3), ("v", "w", 5)])
    g = contract_edge(path, "u", "v")
    assert edge_labels(g) == {("u~v", "w"): "5"}
    two = int_graph(["u", "v"], [("u", "v", 3)])
    g2 = contract_edge(two, "u", "v")
    assert g2.vertices == ("u~v",) and g2.edges == ()
    with pytest.raises(NoSuchEdge):
        contract_edge(path, "u", "w")


def test_contract_never_grows():
    rng = random.Random(31)
    for _ in range(20):
        vs = [f"v{i}" for i in range(rng.randrange(2, 6))]
        edges = []
        for _ in range(rng.randrange(1, 8)):
            a, b = rng.sample(vs, 2)
            edges.append((a, b, rng.choice([2, 3, 5, 6])))
        g = int_graph(vs, edges)
        if not g.edges:
            continue
        e = rng.choice(g.edges)
        h = contract_edge(g, e.a, e.b)
        assert len(h.vertices) < len(g.vertices)
        assert len(h.edges) <= len(g.edges)


# --- reduction mod n ----------------------------------------------------------


def test_reduce_mod_drops_unit_labels():
    g = int_graph(["u", "v", "w"], [("u", "v", 5), ("v", "w", 3)])
    gn = reduce_mod(g, 5)
    # 3 is a unit mod 5, so only the 5-edge survives (as the zero residue ideal).
    assert [(e.a, e.b) for e in gn.edges] == [("u", "v")]
    assert gn.edges[0].label.is_zero
