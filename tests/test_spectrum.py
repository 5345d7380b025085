import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsplines import (
    Edge,
    EdgeLabeledGraph,
    FactoredElement,
    UnrelatedGraphs,
    base_change_commutes,
    contract_edge,
    delete_edge,
    delete_vertex,
    fiber_over,
    make_factor,
    normalize,
    spectrum_diff,
    spectrum_report,
)
from gsplines.graphs import RestrictionOutcome, classify
from gsplines.rings import canonical_key
from conftest import (
    FACTOR_TEXTS,
    QX,
    ZZ,
    factored_graphs,
    int_graph,
    int_label,
    parse_factor,
    unrelated_pairs,
)


def classes(partition):
    return tuple(tuple(c) for c in partition)


# --- spectrum_report -----------------------------------------------------------


def test_triangle_report(triangle):
    rep = spectrum_report(triangle)
    assert rep.relevant_primes == (3, 5, 7)
    assert rep.fibers[3] == (("u", "v"), ("w",))
    assert rep.fibers[5] == (("u",), ("v", "w"))
    assert rep.fibers[7] == (("u", "w"), ("v",))
    # 3 nodes, 3 links, connected: cycle rank 1
    assert len(rep.links) == 3
    assert rep.hole_count == 1
    assert rep.components == 1
    assert rep.generic_points == 3


def test_path_report(path_graph):
    rep = spectrum_report(path_graph)
    assert rep.hole_count == 0
    assert rep.components == 1


def test_edgeless_report():
    g = int_graph(["u", "v", "w"], [])
    rep = spectrum_report(g)
    assert rep.components == 3
    assert rep.hole_count == 0
    assert rep.relevant_primes == ()


def test_zero_label_edge_report():
    g = normalize(ZZ, ["u", "v"], [("u", "v", FactoredElement.zero())])
    rep = spectrum_report(g)
    assert rep.components == 1
    assert rep.hole_count == 0
    assert rep.fully_glued_pairs == (("u", "v"),)
    assert rep.generic_points == 1


def test_multi_factor_label_creates_parallel_links():
    # One edge labeled by 6 = 2*3 glues at two distinct points: the gluing
    # multigraph has two parallel links, hence one hole.
    g = int_graph(["u", "v"], [("u", "v", 6)])
    rep = spectrum_report(g)
    assert len(rep.links) == 2
    assert rep.hole_count == 1


def test_trees_with_single_factor_labels_have_no_holes():
    rng = random.Random(43)
    for _ in range(20):
        nv = rng.randrange(1, 7)
        vs = [f"v{i}" for i in range(nv)]
        edges = []
        for i in range(1, nv):
            parent = rng.randrange(i)
            edges.append((vs[parent], vs[i], rng.choice([2, 3, 5, 7, 9])))
        g = int_graph(vs, edges)
        assert spectrum_report(g).hole_count == 0


def test_components_match_underlying_graph():
    rng = random.Random(67)
    from gsplines import connected_components

    for _ in range(20):
        nv = rng.randrange(1, 7)
        vs = [f"v{i}" for i in range(nv)]
        edges = []
        for _ in range(rng.randrange(0, nv + 2)):
            if nv < 2:
                break
            a, b = rng.sample(vs, 2)
            edges.append((a, b, rng.choice([0, 2, 3, 6])))
        g = int_graph(vs, edges)
        assert spectrum_report(g).components == len(connected_components(g))


def test_single_cycle_coprime_labels_one_hole():
    g = int_graph(
        ["a", "b", "c", "d"],
        [("a", "b", 2), ("b", "c", 3), ("c", "d", 5), ("a", "d", 7)],
    )
    assert spectrum_report(g).hole_count == 1


# --- fiber_over -----------------------------------------------------------------


def test_fiber_examples(triangle):
    assert fiber_over(triangle, make_factor(3, ZZ)) == (("u", "v"), ("w",))
    assert fiber_over(triangle, make_factor(2, ZZ)) == (("u",), ("v",), ("w",))
    g = normalize(
        ZZ,
        ["u", "v"],
        [("u", "v", FactoredElement.zero())],
    )
    assert fiber_over(g, make_factor(11, ZZ)) == (("u", "v"),)


def test_fiber_counts(triangle):
    rep = spectrum_report(triangle)
    for p in rep.relevant_primes:
        divisible = sum(
            1
            for e in triangle.edges
            if any(f.element == p for f in e.label.factors)
        )
        # one p-divisible edge here, never a p-cycle, so classes = |V| - edges
        assert len(rep.fibers[p]) == len(triangle.vertices) - divisible


def key_reference_fiber(g, element):
    """The classes glued over ``element`` by definition: the edges whose
    label is zero or has a factor with the same ``canonical_key``, closed
    under connectivity, classes in order of their first vertex."""
    key = canonical_key(element)
    adj = {v: [] for v in g.vertices}
    for e in g.edges:
        if e.label.is_zero or any(canonical_key(f.element) == key for f in e.label.factors):
            adj[e.a].append(e.b)
            adj[e.b].append(e.a)
    seen, classes = set(), []
    for v in g.vertices:
        if v in seen:
            continue
        comp, stack = {v}, [v]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        classes.append(tuple(w for w in g.vertices if w in comp))
    return tuple(classes)


def associate(p):
    """A different generator of the same ideal."""
    return -p if isinstance(p, int) else p * Fraction(-3, 2)


@settings(max_examples=200, deadline=None)
@given(factored_graphs())
def test_fibers_match_canonical_key_reference(g):
    report = spectrum_report(g)
    keys = {canonical_key(f.element) for e in g.edges for f in e.label.factors}
    assert [canonical_key(p) for p in report.relevant_primes] == sorted(keys)
    assert tuple(report.fibers) == report.relevant_primes
    for p in report.relevant_primes:
        assert report.fibers[p] == key_reference_fiber(g, p)
        assert fiber_over(g, associate(p)) == report.fibers[p]
    for text in FACTOR_TEXTS[g.ring]:
        f = parse_factor(text, g.ring)
        assert fiber_over(g, f) == key_reference_fiber(g, f.element)


# --- base change ------------------------------------------------------------------


def test_base_change_triangle(triangle):
    check = base_change_commutes(triangle, [make_factor(3, ZZ)])
    assert check.commutes, check.discrepancies
    assert check.restricted.hole_count == 0
    assert spectrum_report(triangle).hole_count == 1


def test_base_change_empty_invert(triangle):
    assert base_change_commutes(triangle, []).commutes


def test_base_change_hexchain(hexchain):
    inv = [make_factor(p, ZZ) for p in (3, 5, 2, 11, 13)]
    check = base_change_commutes(hexchain, inv)
    assert check.commutes, check.discrepancies
    assert check.restricted.relevant_primes == (7,)
    assert check.restricted.hole_count == 1  # hexagon three's cycle survives


def test_base_change_random():
    rng = random.Random(47)
    primes = [2, 3, 5, 7, 11]
    for _ in range(60):
        nv = rng.randrange(2, 7)
        vs = [f"v{i}" for i in range(nv)]
        edges = []
        for _ in range(rng.randrange(0, nv + 3)):
            a, b = rng.sample(vs, 2)
            n = rng.choice([0, 1, 1, 1])
            label = 0
            if n:
                label = rng.choice(primes) * rng.choice([1, rng.choice(primes)])
            edges.append((a, b, label))
        g = int_graph(vs, edges)
        invert = [make_factor(p, ZZ) for p in rng.sample(primes, rng.randrange(0, 4))]
        check = base_change_commutes(g, invert)
        assert check.commutes, (edges, invert, check.discrepancies)


@settings(max_examples=100, deadline=None)
@given(factored_graphs(), st.data())
def test_base_change_commutes_on_random_graphs(g, data):
    texts = data.draw(st.sets(st.sampled_from(FACTOR_TEXTS[g.ring]), max_size=3))
    check = base_change_commutes(g, [parse_factor(t, g.ring) for t in sorted(texts)])
    assert check.commutes, check.discrepancies


@pytest.mark.parametrize(
    "edges, expected",
    [
        # u-v's only factor, 3, is inverted, yet the edge is kept
        (
            [("u", "v", 3), ("v", "w", 5), ("u", "w", 7)],
            ("relevant factors differ", "gluing links differ", "hole count differs: 1 vs 0"),
        ),
        # v-w survives the localization, yet it is dropped
        (
            [("u", "w", 7)],
            ("relevant factors differ", "gluing links differ", "components differ: 2 vs 1"),
        ),
        # the factor 5 moved from v-w to u-v
        ([("u", "v", 5), ("u", "w", 7)], ("fiber at 5 differs", "gluing links differ")),
    ],
)
def test_base_change_refutes_a_faulty_restriction(triangle, monkeypatch, edges, expected):
    # Built directly: ``normalize`` over the localized ring would strip the
    # inverted factor and so mend the first planted fault.
    def faulty(g, invert):
        ring = g.ring.localize(invert)
        graph = EdgeLabeledGraph(ring, g.vertices, tuple(Edge(a, b, int_label(n)) for a, b, n in edges))
        return RestrictionOutcome(graph, (), classify(graph))

    monkeypatch.setattr("gsplines.spectrum.restrict", faulty)
    check = base_change_commutes(triangle, [make_factor(3, ZZ)])
    assert not check
    assert check.discrepancies == expected


# --- diffs -----------------------------------------------------------------------


def test_diff_delete_edge(triangle):
    after = delete_edge(triangle, "u", "v")
    diff = spectrum_diff(triangle, after)
    assert diff.before.hole_count == 1
    assert diff.after.hole_count == 0
    assert diff.after.components == 1
    assert diff.narrative[0] == "operation: delete-edge u-v"
    assert "holeCount: 1 -> 0" in diff.narrative


def test_diff_two_vertex_split(triangle):
    g = int_graph(["u", "v"], [("u", "v", 3)])
    after = delete_edge(g, "u", "v")
    diff = spectrum_diff(g, after)
    assert diff.before.components == 1
    assert diff.after.components == 2
    assert "components: 1 -> 2 (copies no longer glued)" in diff.narrative


def test_diff_contract(triangle):
    after = contract_edge(triangle, "u", "v")
    diff = spectrum_diff(triangle, after)
    assert diff.after.hole_count == 1
    assert "vertices identified: u, v -> u~v" in diff.narrative


def test_diff_contract_names_with_tilde(triangle):
    once = contract_edge(triangle, "u", "v")
    twice = contract_edge(once, "u~v", "w")
    assert twice.vertices == ("u~v~w",)
    diff = spectrum_diff(once, twice)
    assert diff.narrative[:2] == (
        "operation: contract u~v-w",
        "vertices identified: u~v, w -> u~v~w",
    )
    reverse = contract_edge(once, "w", "u~v")
    assert spectrum_diff(once, reverse).narrative[1] == "vertices identified: w, u~v -> w~u~v"


def test_diff_delete_vertex(triangle):
    after = delete_vertex(triangle, "w")
    diff = spectrum_diff(triangle, after)
    assert diff.narrative[0] == "operation: delete-vertex w"
    assert diff.after.components == 1


def test_diff_unrelated(triangle):
    other = int_graph(["a", "b"], [("a", "b", 3)])
    with pytest.raises(UnrelatedGraphs):
        spectrum_diff(triangle, other)
    both = delete_edge(delete_edge(triangle, "u", "v"), "v", "w")
    with pytest.raises(UnrelatedGraphs):
        spectrum_diff(triangle, both)
    for before, after in unrelated_pairs():
        with pytest.raises(UnrelatedGraphs):
            spectrum_diff(before, after)
    # deleting w would give the edgeless graph on u, v, but over Int
    with pytest.raises(UnrelatedGraphs):
        spectrum_diff(delete_edge(triangle, "u", "v"), normalize(QX, ["u", "v"], []))


def test_delete_edge_never_increases_holes():
    rng = random.Random(53)
    for _ in range(20):
        nv = rng.randrange(2, 6)
        vs = [f"v{i}" for i in range(nv)]
        edges = []
        for _ in range(rng.randrange(1, nv + 3)):
            a, b = rng.sample(vs, 2)
            edges.append((a, b, rng.choice([2, 3, 5, 6, 0])))
        g = int_graph(vs, edges)
        if not g.edges:
            continue
        e = rng.choice(g.edges)
        after = delete_edge(g, e.a, e.b)
        assert spectrum_report(after).hole_count <= spectrum_report(g).hole_count


def test_contract_preserves_component_count():
    rng = random.Random(59)
    for _ in range(20):
        nv = rng.randrange(2, 6)
        vs = [f"v{i}" for i in range(nv)]
        edges = []
        for _ in range(rng.randrange(1, nv + 3)):
            a, b = rng.sample(vs, 2)
            edges.append((a, b, rng.choice([2, 3, 5, 6])))
        g = int_graph(vs, edges)
        if not g.edges:
            continue
        e = rng.choice(g.edges)
        after = contract_edge(g, e.a, e.b)
        assert spectrum_report(after).components == spectrum_report(g).components
