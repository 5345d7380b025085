"""``gkm_check`` against the plain per-edge reference, its errors, and the
edge generators a graph keeps."""

import math
import pickle
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsplines import (
    EdgeLabeledGraph,
    FactoredElement,
    MixedRings,
    Residue,
    RingDescriptor,
    Spline,
    contract_edge,
    flow_up_normalize,
    format_element,
    gkm_check,
    incremental_assembled,
    make_factor,
    membership,
    normalize,
    parse_element,
    reduce_mod,
    restrict,
    solve_direct,
)
from conftest import FACTOR_TEXTS, QX, QXY, ZZ, int_graph, int_label, parse_factor
from gkm_reference import _generator, reference_gkm_check

INT_LABELS = (0, 2, 3, 4, 5, 6, 9, 10, 12, 15)
VALUE_TEXTS = {
    QX: ("0", "1", "-2", "x", "x-1", "x^2+1", "3*x+2"),
    QXY: ("0", "1", "x", "y", "x-y", "x*y-1", "2*y^2-x"),
}
KINDS = ("int", "mod", "qx", "qxy", "int-restricted", "qx-localized")


def spl(g, *values):
    return Spline(g, dict(zip(g.vertices, values)))


def shape(draw):
    """Vertices ``v0..`` (2-5 of them, isolated ones allowed) and 1-6 edges
    between drawn pairs, loops and repeats included."""
    vs = [f"v{i}" for i in range(draw(st.integers(2, 5)))]
    pair = st.tuples(st.sampled_from(vs), st.sampled_from(vs))
    return vs, draw(st.lists(pair, min_size=1, max_size=6))


def polynomial_label(draw, ring):
    """Zero (one time in six) or a product of 1-2 factors from
    ``FACTOR_TEXTS`` with multiplicities 1-2."""
    if draw(st.integers(0, 5)) == 0:
        return FactoredElement.zero()
    texts = draw(st.sets(st.sampled_from(FACTOR_TEXTS[ring]), min_size=1, max_size=2))
    return FactoredElement(tuple(parse_factor(t, ring, draw(st.integers(1, 2))) for t in texts))


def residue_label(draw, ring):
    """Zero, or a product of 1-2 residue factors with multiplicities 1-3;
    a power such as ``6^2`` modulo 12 vanishes, and a unit factor imposes
    nothing."""
    if draw(st.integers(0, 5)) == 0:
        return FactoredElement.zero()
    n = ring.modulus
    factors = {}
    for x in draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=2)):
        f = make_factor(Residue(x, n), ring, draw(st.integers(1, 3)))
        factors[f.element] = f
    return FactoredElement(tuple(factors.values()))


@st.composite
def graphs(draw, kind):
    vs, pairs = shape(draw)
    if kind in ("int", "int-restricted"):
        g = int_graph(vs, [(a, b, draw(st.sampled_from(INT_LABELS))) for a, b in pairs])
        if kind == "int":
            return g
        primes = draw(st.sets(st.sampled_from((2, 3, 5)), min_size=1))
        return restrict(g, [make_factor(p, ZZ) for p in sorted(primes)]).graph
    if kind == "mod":
        ring = RingDescriptor.residues(draw(st.integers(2, 12)))
        return normalize(ring, vs, [(a, b, residue_label(draw, ring)) for a, b in pairs])
    ring = QXY if kind == "qxy" else QX
    g = normalize(ring, vs, [(a, b, polynomial_label(draw, ring)) for a, b in pairs])
    if kind != "qx-localized":
        return g
    texts = draw(st.sets(st.sampled_from(("x", "x-1", "x^2+1")), min_size=1))
    invert = [parse_factor(t, QX) for t in sorted(texts)]
    if draw(st.booleans()):
        return restrict(g, invert).graph
    # As ``localize_module`` builds it: the labels keep their inverted factors.
    return EdgeLabeledGraph(QX.localize(invert), g.vertices, g.edges)


def elements(ring):
    """Values of ``ring``; residues are drawn as ints in ``[0, n)``."""
    if ring.kind == "Int":
        return st.integers(-6, 6)
    if ring.kind == "ModInt":
        return st.integers(0, ring.modulus - 1)
    return st.sampled_from(VALUE_TEXTS[QX if ring.nvars == 1 else QXY]).map(
        lambda t: parse_element(t, ring.base())
    )


@st.composite
def labelings(draw, g):
    """A labeling of ``g``: random values, or ``c + k_v * P`` for ``P`` the
    product of the nonzero generators, which meets every nonzero edge
    congruence; one vertex is then nudged by one, sometimes.  Over ``Z/n``
    each value is an int or a ``Residue``."""
    ring = g.ring
    modular = ring.kind == "ModInt"
    values = {v: draw(elements(ring)) for v in g.vertices}
    if draw(st.booleans()):
        one = 1 if modular else ring.base().one()
        gens = [_generator(e.label, ring) for e in g.edges]
        product = math.prod((x for x in gens if x), start=one)
        c = draw(elements(ring))
        values = {v: c + draw(st.sampled_from((0, 1, -1, 2))) * product for v in g.vertices}
    if g.vertices and draw(st.booleans()):
        v = draw(st.sampled_from(g.vertices))
        values[v] = values[v] + 1
    if modular:
        n = ring.modulus
        values = {v: draw(st.sampled_from((x, Residue(x, n)))) for v, x in values.items()}
    return Spline(g, values)


@st.composite
def checked_labelings(draw):
    g = draw(graphs(draw(st.sampled_from(KINDS))))
    return g, draw(labelings(g))


def _residue_graph():
    ring = RingDescriptor.residues(12)
    vanishing = FactoredElement((make_factor(Residue(6, 12), ring, 2),))
    edges = [("u", "v", vanishing), ("v", "w", FactoredElement.zero())]
    return normalize(ring, ["u", "v", "w"], edges)


@settings(max_examples=400, deadline=None)
@given(checked_labelings())
# Modulo 12, 6^2 vanishes: the edge forces equality, so 6 apart fails.
@example((_residue_graph(), spl(_residue_graph(), 0, 6, 6)))
@example((_residue_graph(), spl(_residue_graph(), 6, 6, Residue(18, 12))))
def test_gkm_check_matches_reference(case):
    g, s = case
    expected = reference_gkm_check(g, s)
    # Twice on one graph object: the second call reads the stored generators.
    assert gkm_check(g, s) is expected
    assert gkm_check(g, s) is expected


# --- errors -------------------------------------------------------------------


@pytest.mark.parametrize(
    "ring, good, bad",
    [
        (ZZ, 1, Fraction(1, 2)),
        (ZZ, 1, True),
        (RingDescriptor.residues(6), Residue(1, 6), Residue(1, 5)),
        (QX, 1, parse_element("x*y", QXY)),
    ],
)
def test_wrong_ring_value_at_an_endpoint_raises(ring, good, bad):
    label = FactoredElement.zero()
    g = normalize(ring, ["u", "v", "w"], [("u", "v", label), ("v", "w", label)])
    for at in g.vertices:
        values = {v: good for v in g.vertices}
        values[at] = bad
        with pytest.raises(MixedRings):
            gkm_check(g, Spline(g, values))
        with pytest.raises(MixedRings):
            reference_gkm_check(g, Spline(g, values))


FOREIGN_VALUES = (True, Fraction(1, 2), Residue(1, 5), parse_element("x*y", QXY))


@pytest.mark.parametrize(
    "ring, good",
    [(ZZ, 1), (RingDescriptor.residues(6), Residue(1, 6)), (QX, parse_element("x", QX))],
    ids=["int", "mod6", "qx"],
)
@pytest.mark.parametrize("bad", FOREIGN_VALUES, ids=["bool", "fraction", "mod5", "qxy"])
def test_foreign_value_raises_at_every_entry(ring, good, bad):
    """A value that already has the work ring's type skips ``coerce``; no
    value of another ring slips through with it, wherever a caller's value
    enters or leaves."""
    label = FactoredElement.zero()
    g = normalize(ring, ["u", "v", "w"], [("u", "v", label), ("v", "w", label)])
    module = solve_direct(g)
    for at in g.vertices:
        values = {v: good for v in g.vertices}
        values[at] = bad
        s = Spline(g, values)
        with pytest.raises(MixedRings):
            gkm_check(g, s)
        with pytest.raises(MixedRings):
            membership(module, s)
        with pytest.raises(MixedRings):
            flow_up_normalize([s], graph=g)
    with pytest.raises(MixedRings):
        format_element(bad, ring)


def test_missing_endpoint_raises_key_error(triangle):
    with pytest.raises(KeyError):
        gkm_check(triangle, Spline(triangle, {"u": 0, "v": 0}))


def test_values_never_read_are_not_checked():
    """An isolated vertex's value is never read, nor is a value past the
    first broken congruence; both checks agree with the reference."""
    g = int_graph(["u", "v", "w", "x"], [("u", "v", 3), ("v", "w", 5)])
    isolated = Spline(g, {"u": 0, "v": 3, "w": 8, "x": object()})
    assert gkm_check(g, isolated) and reference_gkm_check(g, isolated)
    assert gkm_check(g, Spline(g, {"u": 0, "v": 3, "w": 8}))
    past = Spline(g, {"u": 0, "v": 1, "w": Fraction(1, 2)})
    assert not gkm_check(g, past) and not reference_gkm_check(g, past)


# --- the stored generators ----------------------------------------------------------


K4 = ["a", "b", "c", "d"]
K4_PAIRS = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
K4_INT_LABELS = (6, 10, 15, 4, 9, 0)
K4_QX_FACTORS = (("x", 1), ("x-1", 2), ("x^2+1", 1), ("x+2", 2), ("2*x-3", 1), ("x", 2))


def _k4(ring, labels):
    return normalize(ring, K4, [(a, b, label) for (a, b), label in zip(K4_PAIRS, labels)])


STORED_CASES = {
    "int": lambda: _k4(ZZ, map(int_label, K4_INT_LABELS)),
    "mod": lambda: reduce_mod(_k4(ZZ, map(int_label, K4_INT_LABELS)), 36),
    "qx": lambda: _k4(QX, [FactoredElement((parse_factor(t, QX, m),)) for t, m in K4_QX_FACTORS]),
}


@pytest.mark.parametrize("kind", sorted(STORED_CASES))
def test_each_label_is_expanded_once_per_graph(kind, monkeypatch):
    # Both solvers and the checks read the graph's stored generators, so
    # together they expand each label at most once.  (replay_trace is left
    # out: it derives each generator from its trace's label on purpose.)
    g = STORED_CASES[kind]()
    expanded = []
    expand = FactoredElement.expand

    def spy(label, ring):
        expanded.append(label)
        return expand(label, ring)

    monkeypatch.setattr(FactoredElement, "expand", spy)
    module = solve_direct(g)
    assert expanded, "the first solver derives the generators"
    assert incremental_assembled(g)[0] == module
    assert all(gkm_check(g, s) for s in module.basis)
    assert gkm_check(g, spl(g, *[1] * len(g.vertices)))
    assert len(expanded) <= len(g.edges)
    assert max(Counter(map(id, expanded)).values()) == 1


def test_derived_graphs_derive_their_own_generators():
    square = [("u", "v", 6), ("v", "w", 10), ("w", "x", 15), ("u", "x", 4)]
    g = int_graph(["u", "v", "w", "x"], square)
    assert g.edge_generators == (6, 4, 10, 15)
    derived = {
        "restrict": restrict(g, [make_factor(2, ZZ)]).graph,
        "reduce_mod": reduce_mod(g, 8),
        "contract_edge": contract_edge(g, "u", "v"),
    }
    for name, h in derived.items():
        assert h._edge_generators is None, name
        assert h.edge_generators == tuple(_generator(e.label, h.ring) for e in h.edges), name
    assert derived["restrict"].edge_generators == (3, 5, 15)
    assert derived["reduce_mod"].edge_generators == (2, 4, 2)
    assert derived["contract_edge"].edge_generators == (10, 4, 15)


def test_stored_generators_stay_out_of_equality_hash_and_repr(triangle):
    fresh = int_graph(["u", "v", "w"], [("u", "v", 3), ("v", "w", 5), ("u", "w", 7)])
    assert triangle.edge_generators == (3, 7, 5)
    # The first read replaces the field's None; no cached_property entry.
    assert triangle._edge_generators == (3, 7, 5) and fresh._edge_generators is None
    assert "edge_generators" not in vars(triangle)
    assert triangle == fresh
    assert hash(triangle) == hash(fresh)
    assert repr(triangle) == repr(fresh)
    for g in (triangle, fresh):
        again = pickle.loads(pickle.dumps(g))
        assert again == g and again.edge_generators == (3, 7, 5)


def test_threads_sharing_a_graph_see_one_set_of_generators():
    """Threads that check labelings on one fresh graph at once may each
    derive the generators; every verdict and the stored tuple stay those
    of the reference."""
    g = STORED_CASES["qx"]()
    basis = solve_direct(g).basis
    graph = EdgeLabeledGraph(g.ring, g.vertices, g.edges)
    verdicts = []
    lock = threading.Lock()

    def worker():
        for s in basis:
            ok = gkm_check(graph, Spline(graph, s.values))
            with lock:
                verdicts.append(ok)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert verdicts == [True] * (6 * len(basis))
    assert graph.edge_generators == tuple(_generator(e.label, g.ring) for e in g.edges)
