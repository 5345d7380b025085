import ast
import copy
import dataclasses
import functools
import gc
import itertools
import math
import pathlib
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsplines import (
    ComputationError,
    Edge,
    EdgeEqualizer,
    EdgeLabeledGraph,
    FactoredElement,
    InputError,
    InternalError,
    LeafPullback,
    Residue,
    RingDescriptor,
    Spline,
    SplineModule,
    TooLarge,
    UnsupportedRing,
    bruteforce_values,
    connected_components,
    enumerate_bruteforce,
    flow_up_normalize,
    gkm_check,
    incremental_assembled,
    localize_module,
    make_factor,
    membership,
    normalize,
    parse_element,
    reduce_mod,
    replay_trace,
    restrict,
    solve_direct,
    spline_set,
)
from gsplines import modules
from gsplines.modules import (
    _apply,
    _canonical,
    _grow,
    _impose,
    _step,
    _walk,
    hermite_rows,
    work_ring,
)
from gsplines.formats import render_trace_text
from gsplines.rings import (
    _edge_generator,
    factored_from_residue,
    format_element,
    format_factored,
    normalized_associate,
)
from gsplines.rings import gcd as ring_gcd
from conftest import QX, QXY, ZZ, int_graph, int_label
from hermite_reference import reference_component_rows, reference_hermite_rows, reference_impose
from membership_reference import reference_membership


def spl(g, *values):
    return Spline(g, dict(zip(g.vertices, values)))


def brute_set(gn):
    return frozenset(
        tuple(x.value for x in s.value_tuple(gn.vertices))
        for s in enumerate_bruteforce(gn)
    )


# --- gkm_check ----------------------------------------------------------------


def test_gkm_examples(triangle):
    assert gkm_check(triangle, spl(triangle, 1, 1, 1))
    assert gkm_check(triangle, spl(triangle, 0, 3, 28))
    assert not gkm_check(triangle, spl(triangle, 0, 1, 0))


def test_gkm_zero_label_means_equality():
    g = normalize(ZZ, ["u", "v"], [("u", "v", FactoredElement.zero())])
    assert gkm_check(g, spl(g, 4, 4))
    assert not gkm_check(g, spl(g, 4, 5))


# --- solve_direct ---------------------------------------------------------------


def test_solve_single_edge():
    g = int_graph(["u", "v"], [("u", "v", 3)])
    m = solve_direct(g)
    assert m.rows == ((1, 1), (0, 3))
    # Oracle: enumerate over Z/9; 27 splines, all spanned by the basis.
    gn = reduce_mod(g, 9)
    bf = brute_set(gn)
    assert len(bf) == 27
    assert bf == spline_set(solve_direct(gn))


def test_solve_triangle_golden(triangle):
    m = solve_direct(triangle)
    assert m.rows == ((1, 1, 1), (0, 3, 28), (0, 0, 35))
    assert m.pivots == (0, 1, 2)
    leading = tuple((m.vertex_order[p], row[p]) for row, p in zip(m.rows, m.pivots))
    assert leading == (("u", 1), ("v", 3), ("w", 35))
    for s in m.basis:
        assert gkm_check(triangle, s)


def test_solve_zero_edge_rank_one():
    g = normalize(ZZ, ["u", "v"], [("u", "v", FactoredElement.zero())])
    m = solve_direct(g)
    assert m.rows == ((1, 1),)


def test_solve_multivariate_unsupported():
    rq = RingDescriptor.rational_polynomials("x", "y")
    lbl = FactoredElement((__import__("gsplines").make_factor(parse_element("x-3", rq), rq),))
    g = normalize(rq, ["u", "v"], [("u", "v", lbl)])
    with pytest.raises(UnsupportedRing):
        solve_direct(g)


def test_both_solvers_reject_a_multivariate_ring_without_vertices():
    # The ring is checked on entry, not per component, so a graph with no
    # component still names the ring it cannot solve over.
    g = normalize(QXY, [], [])
    with pytest.raises(UnsupportedRing, match="basis computation"):
        solve_direct(g)
    with pytest.raises(UnsupportedRing, match="the incremental builder"):
        incremental_assembled(g)


def qx_triangle():
    lbl = lambda t: FactoredElement((make_factor(parse_element(t, QX), QX),))
    return normalize(QX, ["u", "v", "w"], [("u", "v", lbl("x")), ("v", "w", lbl("x-1")), ("u", "w", lbl("x-2"))])


def test_solve_univariate_polynomials():
    g = qx_triangle()
    m = solve_direct(g)
    assert m.rank == 3
    for s in m.basis:
        assert gkm_check(g, s)
    one = QX.one()
    assert membership(m, Spline(g, {v: one for v in g.vertices})).member


def test_component_product():
    g = int_graph(
        ["a", "b", "c", "d"],
        [("a", "b", 3), ("c", "d", 5)],
    )
    m = solve_direct(g)
    comps = connected_components(g)
    ranks = [solve_direct(c).rank for c in comps]
    assert m.rank == sum(ranks)
    gn = reduce_mod(g, 15)
    assert brute_set(gn) == spline_set(solve_direct(gn))


def test_vertex_order_override(triangle):
    m = solve_direct(triangle, ["w", "v", "u"])
    assert m.vertex_order == ("w", "v", "u")
    assert m.pivots == (0, 1, 2)
    # flow-up in the new order: first row constant, then pivot at v, u
    assert m.rows[0] == (1, 1, 1)
    for s in m.basis:
        assert gkm_check(triangle, s)


# --- the incremental build and insertion orders ------------------------------


def last_matrix(trace):
    """The rows after the trace's last step, from its forward pass; the
    start matrix for a trace without steps."""
    return (trace.start_matrix, *trace.matrices_after())[-1]


def grown(g, start, edges):
    """The module ``_grow`` builds from ``start`` along ``edges``, an
    insertion order of ``g``'s edges, in flow-up form."""
    gen_of = dict(zip(map(id, g.edges), g.edge_generators))
    built, rows, _ = _grow(work_ring(g.ring), start, edges, [gen_of[id(e)] for e in edges], False)
    return flow_up_normalize([Spline(g, dict(zip(built, row))) for row in rows], g.vertices, g)


def test_incremental_path():
    g = int_graph(["u", "v", "w"], [("u", "v", 3), ("v", "w", 5)])
    m, (trace,) = incremental_assembled(g)
    assert m.rows == ((1, 1, 1), (0, 3, 3), (0, 0, 5))
    assert [type(s).__name__ for s in trace.steps] == ["LeafPullback", "LeafPullback"]
    assert brute_set(reduce_mod(g, 15)) == spline_set(solve_direct(reduce_mod(g, 15)))


def test_incremental_triangle_matches_direct(triangle):
    m, (trace,) = incremental_assembled(triangle)
    assert m.rows == solve_direct(triangle).rows
    assert [type(s).__name__ for s in trace.steps] == [
        "LeafPullback",
        "LeafPullback",
        "EdgeEqualizer",
    ]
    # normalized edge order is (u,v), (u,w), (v,w): the last edge closes the cycle
    closing = trace.steps[-1]
    assert {closing.u, closing.v} == {"v", "w"}
    assert brute_set(reduce_mod(triangle, 105)) == spline_set(
        solve_direct(reduce_mod(triangle, 105))
    )


def test_incremental_single_edge_trace():
    g = int_graph(["u", "v"], [("u", "v", 3)])
    m, (trace,) = incremental_assembled(g)
    assert m.rows == ((1, 1), (0, 3))
    assert len(trace.steps) == 1 and isinstance(trace.steps[0], LeafPullback)


def test_incremental_trace_replays(triangle):
    m, (trace,) = incremental_assembled(triangle)
    final = replay_trace(triangle, trace)
    assert final == m.rows


def test_incremental_order_independent(triangle):
    rng = random.Random(17)
    base = incremental_assembled(triangle)[0]
    seen_valid = 0
    for _ in range(12):
        order = rng.sample(triangle.edges, len(triangle.edges))
        try:
            m = grown(triangle, order[0].a, order)
        except InternalError:
            continue  # order did not grow a connected patch
        seen_valid += 1
        assert m == base
    assert seen_valid > 0


def test_incremental_order_independent_random_graphs():
    rng = random.Random(71)
    for _ in range(10):
        nv = rng.randrange(2, 5)
        vs = [f"v{i}" for i in range(nv)]
        edges = [(vs[rng.randrange(i)], vs[i], rng.choice([2, 3, 5, 6, 0])) for i in range(1, nv)]
        for _ in range(rng.randrange(0, 3)):
            a, b = rng.sample(vs, 2)
            edges.append((a, b, rng.choice([2, 3, 5])))
        g = int_graph(vs, edges)
        base = incremental_assembled(g)[0]
        for _ in range(6):
            order = rng.sample(g.edges, len(g.edges))
            try:
                m = grown(g, order[0].a, order)
            except InternalError:
                continue
            assert m == base


def test_incremental_rejects_detached_order():
    # An edge that touches no built vertex breaks the walk's invariant; the
    # solvers never produce one, so only a broken trace could.
    g = int_graph(
        ["a", "b", "c", "d"],
        [("a", "b", 3), ("b", "c", 5), ("c", "d", 7)],
    )
    ab, bc, cd = (g.edge_between(*pair) for pair in (("a", "b"), ("b", "c"), ("c", "d")))
    with pytest.raises(InternalError):
        grown(g, "a", [ab, cd, bc])


def test_incremental_disconnected_input():
    # One trace for the whole graph: c has no edge to a or b, so it is a
    # leaf on the unit ideal from the first vertex, which imposes nothing.
    g = int_graph(["a", "b", "c", "d"], [("a", "b", 3), ("c", "d", 5)])
    m, (trace,) = incremental_assembled(g)
    assert m.rows == solve_direct(g).rows
    assert [(s.new_vertex, s.attach_vertex, format_factored(s.label, ZZ)) for s in trace.steps] == [
        ("b", "a", "3"),
        ("c", "a", "1"),
        ("d", "c", "5"),
    ]
    assert last_matrix(trace) == m.rows


# --- enumerate_bruteforce ---------------------------------------------------------


def test_enumerate_examples():
    g = int_graph(["u", "v"], [("u", "v", 3)])
    assert len(enumerate_bruteforce(reduce_mod(g, 3))) == 3
    assert len(enumerate_bruteforce(reduce_mod(g, 6))) == 12
    with pytest.raises(UnsupportedRing):
        enumerate_bruteforce(g)


def test_enumerate_guard():
    g = int_graph([f"v{i}" for i in range(9)], [])
    with pytest.raises(TooLarge):
        enumerate_bruteforce(reduce_mod(g, 8))  # 8^9 > 10^7


def test_enumerate_deterministic_order():
    g = reduce_mod(int_graph(["u", "v"], [("u", "v", 2)]), 4)
    tuples = [tuple(x.value for x in s.value_tuple(g.vertices)) for s in enumerate_bruteforce(g)]
    assert tuples == sorted(tuples)


# --- membership --------------------------------------------------------------------


def test_membership_examples(triangle):
    m = solve_direct(triangle)
    res = membership(m, spl(triangle, 1, 4, 29))
    assert res.member
    assert [c[0] for c in res.coefficients] == [1, 1, 0]
    assert all(c[1] == 1 for c in res.coefficients)
    assert not membership(m, spl(triangle, 0, 1, 0)).member
    res0 = membership(m, spl(triangle, 0, 0, 0))
    assert res0.member and [c[0] for c in res0.coefficients] == [0, 0, 0]


def test_membership_soundness_random(triangle):
    rng = random.Random(19)
    m = solve_direct(triangle)
    for _ in range(40):
        coeffs = [rng.randrange(-6, 7) for _ in range(m.rank)]
        vec = [0, 0, 0]
        for c, row in zip(coeffs, m.rows):
            vec = [a + c * b for a, b in zip(vec, row)]
        res = membership(m, spl(triangle, *vec))
        assert res.member
        rebuilt = [0, 0, 0]
        for (num, den), row in zip(res.coefficients, m.rows):
            assert den == 1
            rebuilt = [a + num * b for a, b in zip(rebuilt, row)]
        assert rebuilt == vec


def test_membership_with_inverted_denominators():
    from gsplines import make_factor, restrict
    from gsplines.modules import localize_module

    g = int_graph(["u", "v"], [("u", "v", 6)])
    m = solve_direct(g)  # rows (1,1), (0,6)
    out = restrict(g, [make_factor(2, ZZ)])
    m_loc = solve_direct(out.graph)
    assert m_loc.rows == ((1, 1), (0, 3))
    # (0,3) = (1/2)*(0,6) lies in the original module once 2 is inverted.
    s = Spline(g, {"u": 0, "v": 3})
    assert not membership(m, s).member
    localized = localize_module(m, [make_factor(2, ZZ)])
    res = membership(localized, s)
    assert res.member
    assert res.coefficients == ((0, 1), (1, 2))


def test_membership_with_inverted_polynomial_denominators():
    x = parse_element("x", QX)
    g = normalize(QX, ["u", "v"], [("u", "v", FactoredElement((
        make_factor(x - 1, QX), make_factor(x - 2, QX))))])
    m = solve_direct(g)  # rows (1,1), (0,(x-1)(x-2))
    # (0,x-2) = 1/(x-1) * (0,(x-1)(x-2)) once x-1 is inverted.
    s = Spline(g, {"u": QX.zero(), "v": x - 2})
    assert not membership(m, s).member
    localized = localize_module(m, [make_factor(x - 1, QX)])
    res = membership(localized, s)
    assert res.member
    assert res.coefficients == ((QX.zero(), QX.one()), (QX.one(), x - 1))
    # (0,1) would need the denominator (x-1)(x-2), and x-2 is not inverted.
    assert not membership(localized, Spline(g, {"u": QX.zero(), "v": QX.one()})).member


def test_membership_modint():
    g = reduce_mod(int_graph(["u", "v"], [("u", "v", 3)]), 9)
    m = solve_direct(g)
    ok = membership(m, Spline(g, {"u": Residue(1, 9), "v": Residue(4, 9)}))
    assert ok.member
    bad = membership(m, Spline(g, {"u": Residue(0, 9), "v": Residue(1, 9)}))
    assert not bad.member


def test_constant_splines_are_members():
    rng = random.Random(37)
    for _ in range(15):
        vs = [f"v{i}" for i in range(rng.randrange(1, 5))]
        edges = []
        for _ in range(rng.randrange(0, 5)):
            if len(vs) < 2:
                break
            a, b = rng.sample(vs, 2)
            edges.append((a, b, rng.choice([0, 2, 3, 4, 6])))
        g = int_graph(vs, edges)
        m = solve_direct(g)
        r = rng.randrange(-5, 6)
        assert membership(m, Spline(g, {v: r for v in vs})).member


# --- flow_up_normalize ---------------------------------------------------------------


def test_flow_up_examples():
    g = int_graph(["u", "v"], [("u", "v", 3)])
    m = flow_up_normalize([spl(g, 1, 1), spl(g, 1, 4)], graph=g)
    assert m.rows == ((1, 1), (0, 3))
    m2 = flow_up_normalize([spl(g, 2, 2), spl(g, 3, 3)], graph=g)
    assert m2.rows == ((1, 1),)


def test_flow_up_reorders_triangular(triangle):
    rows = [spl(triangle, 0, 3, 28), spl(triangle, 0, 0, 35), spl(triangle, 1, 1, 1)]
    m = flow_up_normalize(rows, graph=triangle)
    assert m.rows == ((1, 1, 1), (0, 3, 28), (0, 0, 35))


# --- rank law --------------------------------------------------------------------------


def test_rank_counts_zero_label_components():
    rng = random.Random(41)
    for _ in range(25):
        nv = rng.randrange(1, 5)
        vs = [f"v{i}" for i in range(nv)]
        edges = []
        for a, b in itertools.combinations(vs, 2):
            draw = rng.randrange(4)
            if draw == 0:
                edges.append((a, b, 0))
            elif draw == 1:
                edges.append((a, b, rng.choice([2, 3, 5, 6])))
        g = int_graph(vs, edges)
        m = solve_direct(g)
        zero_sub = normalize(
            ZZ, vs, [(e.a, e.b, e.label) for e in g.edges if e.label.is_zero]
        )
        expected_rank = len(connected_components(zero_sub))
        assert m.rank == expected_rank
        # cross-check against brute force over a modulus coprime to all labels
        gn = reduce_mod(g, 7)
        assert brute_set(gn) == spline_set(solve_direct(gn))


# --- residue rings: one lift in, one canonical form out -------------------------------


def z12_triangle():
    return reduce_mod(int_graph(["u", "v", "w"], [("u", "v", 6), ("v", "w", 4), ("u", "w", 3)]), 12)


def random_residue_graph(rng):
    n = rng.randrange(2, 13)
    nv = rng.randrange(1, 5)
    while n**nv > 5000:
        nv -= 1
    vs = [f"v{i}" for i in range(nv)]
    edges = [(a, b, rng.choice([0, 2, 3, 4, 6, 8, 9, 10, 12])) for a, b in itertools.combinations(vs, 2)
             if rng.random() < 0.7]
    return reduce_mod(int_graph(vs, edges), n)


def test_residue_three_way_agreement_random():
    rng = random.Random(83)
    for _ in range(40):
        g = random_residue_graph(rng)
        order = list(reversed(g.vertices))
        brute = brute_set(g)
        assert spline_set(solve_direct(g)) == brute
        assert spline_set(solve_direct(g, order)) == frozenset(
            tuple(t[g.vertices.index(v)] for v in order) for t in brute
        )
        inc, traces = incremental_assembled(g)
        assert inc == solve_direct(g)
        for t in traces:
            assert replay_trace(g, t) == last_matrix(t)


def test_residue_membership_coefficients_recombine():
    rng = random.Random(89)
    for _ in range(40):
        g = random_residue_graph(rng)
        n = g.ring.modulus
        m = solve_direct(g)
        splines = {tuple(x.value for x in s.value_tuple(g.vertices)) for s in enumerate_bruteforce(g)}
        for _ in range(5):
            values = tuple(rng.randrange(n) for _ in g.vertices)
            res = membership(m, Spline(g, {v: Residue(x, n) for v, x in zip(g.vertices, values)}))
            assert res.member == (values in splines)
            if not res.member:
                continue
            assert res.coefficients is not None
            rebuilt = [0] * len(g.vertices)
            for (num, den), row in zip(res.coefficients, m.rows):
                assert den == Residue(1, n)
                rebuilt = [(a + num.value * b.value) % n for a, b in zip(rebuilt, row)]
            assert tuple(rebuilt) == values


def test_residue_replay_returns_recorded_matrix():
    g = z12_triangle()
    m, (trace,) = incremental_assembled(g)
    assert [type(s) for s in trace.steps] == [LeafPullback, LeafPullback, EdgeEqualizer]
    assert replay_trace(g, trace) == trace.steps[-1].matrix_after
    assert [x.value for x in m.rows[1]] == [0, 6, 6]


def test_residue_flow_up_reduces_modulo_n():
    g = z12_triangle()
    n = g.ring.modulus
    basis = solve_direct(g).basis
    doubled = [Spline(g, {v: x + x for v, x in s.values.items()}) for s in basis]
    assert flow_up_normalize(list(basis) + doubled, graph=g) == solve_direct(g)
    assert flow_up_normalize([Spline(g, {v: Residue(n, n) for v in g.vertices})], graph=g).rank == 0


def test_replay_rejects_a_tampered_matrix(triangle):
    _, (trace,) = incremental_assembled(triangle)
    last = trace.steps[-1]
    bad_row = (last.matrix_after[-1][0] + 1,) + last.matrix_after[-1][1:]
    tampered = dataclasses.replace(last, matrix_after=last.matrix_after[:-1] + (bad_row,))
    bad = dataclasses.replace(trace, steps=trace.steps[:-1] + (tampered,))
    with pytest.raises(InternalError):
        replay_trace(triangle, bad)
    assert not issubclass(InternalError, (ValueError, InputError, ComputationError))


@pytest.mark.parametrize("tamper", [
    lambda leaf: {"column": (leaf.column[0] + 1,) + leaf.column[1:]},
    lambda leaf: {"adjoined": None},
    lambda leaf: {"adjoined": leaf.adjoined[:-1] + (leaf.adjoined[-1] * 2,)},
], ids=["column-entry", "adjoined-dropped", "adjoined-pivot"])
def test_replay_rejects_a_tampered_leaf(triangle, tamper):
    # A leaf records its new column and adjoined row, not a matrix; replay
    # compares those, so a change to either is caught.
    _, (trace,) = incremental_assembled(triangle)
    i = max(k for k, s in enumerate(trace.steps) if isinstance(s, LeafPullback))
    leaf = trace.steps[i]
    tampered = dataclasses.replace(leaf, **tamper(leaf))
    bad = dataclasses.replace(trace, steps=trace.steps[:i] + (tampered,) + trace.steps[i + 1:])
    assert list(bad.matrices_after())[i] != list(trace.matrices_after())[i]
    with pytest.raises(InternalError):
        replay_trace(triangle, bad)


def test_replay_rejects_a_tampered_start_matrix(triangle):
    # The trace records its start matrix, the one-vertex module over the
    # work ring; the forward pass starts there, so replay checks it too.
    _, (trace,) = incremental_assembled(triangle)
    assert trace.start_matrix == ((1,),)
    bad = dataclasses.replace(trace, start_matrix=((2,),))
    assert list(bad.matrices_after())[0] != list(trace.matrices_after())[0]
    with pytest.raises(InternalError):
        replay_trace(triangle, bad)


def test_replay_rejects_a_renamed_vertex():
    # Renaming the first leaf leaves the next recorded edge touching no
    # built vertex: the walk cannot run, and that is a broken trace too.
    g = int_graph(["u", "v", "w"], [("u", "v", 3), ("v", "w", 5)])
    _, (trace,) = incremental_assembled(g)
    renamed = dataclasses.replace(trace.steps[0], new_vertex="q")
    bad = dataclasses.replace(trace, steps=(renamed,) + trace.steps[1:])
    with pytest.raises(InternalError):
        replay_trace(g, bad)


def test_replay_rejects_a_swapped_label(triangle):
    # Replay derives each generator from the label the trace records, so a
    # label that no longer matches its recorded matrix is caught.
    _, (trace,) = incremental_assembled(triangle)
    first = trace.steps[0]
    assert first.label != int_label(11)
    swapped = dataclasses.replace(first, label=int_label(11))
    bad = dataclasses.replace(trace, steps=(swapped,) + trace.steps[1:])
    with pytest.raises(InternalError):
        replay_trace(triangle, bad)


# --- Z/n enumerators against plain product references ---------------------------------


def _ideal(label, ring):
    """The residues of the ideal a residue-ring label generates, from its definition."""
    n = ring.modulus
    gen = 0 if label.is_zero else label.expand(ring).value
    return {k * gen % n for k in range(n)}


def product_bruteforce(g):
    """Every tuple of the full product whose edge differences lie in the edge ideals."""
    n = g.ring.modulus
    index = {v: i for i, v in enumerate(g.vertices)}
    conditions = [(index[e.a], index[e.b], _ideal(e.label, g.ring)) for e in g.edges]
    return [
        t
        for t in itertools.product(range(n), repeat=len(g.vertices))
        if all((t[i] - t[j]) % n in ideal for i, j, ideal in conditions)
    ]


def product_span(rows, n, width):
    """Every combination of the rows with coefficients in range(n)."""
    out = set()
    for coeffs in itertools.product(range(n), repeat=len(rows)):
        out.add(tuple(sum(c * r[k] for c, r in zip(coeffs, rows)) % n for k in range(width)))
    return frozenset(out)


def _radical(n):
    """The product of the primes dividing n."""
    return math.prod(p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p)))


def random_residue_label(rng, ring):
    """Zero, vanishing modulo n, a unit, or any other residue."""
    n = ring.modulus
    kind = rng.randrange(4)
    if kind == 0:
        return FactoredElement.zero()
    if kind == 1 and _radical(n) < n:  # rad(n)^4 is 0 mod n but is not the zero label
        return FactoredElement((make_factor(Residue(_radical(n), n), ring, 4),))
    return factored_from_residue(rng.randrange(1, 2 * n), ring)


def random_raw_residue_graph(rng, nv=None):
    """A graph built without normalization: edges may name the later vertex
    first, and labels may vanish modulo n or be units."""
    n = rng.randrange(2, 13)
    ring = RingDescriptor.residues(n)
    if nv is None:
        nv = rng.randrange(1, 5)
        while n**nv > 3000:
            nv -= 1
    vs = tuple(f"v{i}" for i in range(nv))
    edges = []
    for a, b in itertools.combinations(vs, 2):
        if rng.random() < 0.6:
            if rng.random() < 0.5:
                a, b = b, a
            edges.append(Edge(a, b, random_residue_label(rng, ring)))
    return EdgeLabeledGraph(ring, vs, tuple(edges))


def value_list(g):
    return [tuple(x.value for x in s.value_tuple(g.vertices)) for s in enumerate_bruteforce(g)]


def test_bruteforce_matches_product_reference():
    rng = random.Random(97)
    for k in range(120):
        g = random_raw_residue_graph(rng) if k % 2 else random_residue_graph(rng)
        splines = enumerate_bruteforce(g)
        values = bruteforce_values(g)
        assert values == product_bruteforce(g)
        assert [tuple(x.value for x in s.value_tuple(g.vertices)) for s in splines] == values
        for s in splines:
            assert tuple(s.values) == g.vertices
            assert all(x == Residue(x.value, g.ring.modulus) for x in s.values.values())


def test_bruteforce_edgeless_and_single_vertex():
    for n in (2, 7, 12):
        ring = RingDescriptor.residues(n)
        one = EdgeLabeledGraph(ring, ("v",), ())
        assert value_list(one) == [(x,) for x in range(n)]
        three = EdgeLabeledGraph(ring, ("a", "b", "c"), ())
        assert value_list(three) == list(itertools.product(range(n), repeat=3))


def test_bruteforce_edge_declared_later_vertex_first():
    ring = RingDescriptor.residues(12)
    label = factored_from_residue(4, ring)
    forward = EdgeLabeledGraph(ring, ("a", "b", "c"), (Edge("a", "c", label),))
    backward = EdgeLabeledGraph(ring, ("a", "b", "c"), (Edge("c", "a", label),))
    assert value_list(forward) == value_list(backward) == product_bruteforce(forward)
    assert len(value_list(forward)) == 12 * 12 * 3


def test_bruteforce_lexicographic_order_on_three_vertices():
    rng = random.Random(101)
    for _ in range(30):
        g = random_raw_residue_graph(rng, nv=3)
        tuples = value_list(g)
        assert all(a < b for a, b in zip(tuples, tuples[1:]))


def test_bruteforce_steps_by_the_lcm_of_a_vertexs_congruences():
    # w meets two congruences, mod 5 and mod 7, so its values step by 35;
    # every (u, v) pair with v = u mod 3 has three choices of w in Z/105.
    g = reduce_mod(int_graph(["u", "v", "w"], [("u", "v", 3), ("v", "w", 5), ("u", "w", 7)]), 105)
    values = bruteforce_values(g)
    assert len(values) == 11025
    assert values[:3] == [(0, 0, 0), (0, 0, 35), (0, 0, 70)]
    assert values[3] == (0, 3, 28)
    # d's third congruence widens the step from lcm(2, 4) = 4 to 12.
    star = reduce_mod(int_graph(["a", "b", "c", "d"], [("a", "d", 2), ("b", "d", 4), ("c", "d", 3)]), 12)
    assert bruteforce_values(star) == product_bruteforce(star)


# --- Spline: a dict-backed or a row-backed labeling --------------------------------


@pytest.fixture
def residue_path():
    return reduce_mod(int_graph(["u", "v", "w"], [("u", "v", 2), ("v", "w", 3)]), 6)


def test_row_backed_spline_equals_the_dict_spline(residue_path):
    g = residue_path
    for s in enumerate_bruteforce(g):
        row = s.value_tuple(g.vertices)
        by_dict = Spline(g, dict(zip(g.vertices, row)))
        assert s == by_dict and by_dict == s
        assert not s != by_dict
    first, second = enumerate_bruteforce(g)[:2]
    assert first != second and Spline(g, dict(second.values)) != first
    assert first != first.values and first.__eq__(first.values) is NotImplemented


def test_row_backed_values_follow_the_vertex_order(residue_path):
    g = residue_path
    s = enumerate_bruteforce(g)[-1]
    assert list(s.values) == list(g.vertices)
    assert s.values is s.values
    assert tuple(s.values.values()) == s.value_tuple(g.vertices)


def test_value_tuple_in_another_order(residue_path):
    g = residue_path
    order = tuple(reversed(g.vertices))
    for s in enumerate_bruteforce(g):
        expected = tuple(s.values[v] for v in order)
        assert s.value_tuple(order) == expected
        assert Spline(g, dict(s.values)).value_tuple(order) == expected
        assert s.value_tuple(list(g.vertices)) == s.value_tuple(g.vertices)


def test_spline_is_immutable_and_unhashable(residue_path):
    g = residue_path
    for s in (enumerate_bruteforce(g)[1], Spline(g, {v: Residue(1, 6) for v in g.vertices})):
        for name in ("graph", "values", "_row", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(s, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del s.graph
        with pytest.raises(TypeError):
            hash(s)
        assert copy.copy(s) == s and pickle.loads(pickle.dumps(s)) == s


def test_spline_repr_keeps_the_dataclass_format(residue_path):
    g = residue_path
    s = enumerate_bruteforce(g)[3]
    expected = f"Spline(graph={g!r}, values={{'u': Residue(0 mod 6), 'v': Residue(2 mod 6), 'w': Residue(5 mod 6)}})"
    assert repr(s) == repr(Spline(g, dict(s.values))) == expected


def _trace_text_reference(g, trace):
    """The trace text printed from each step's rows in the forward pass."""
    work = work_ring(g.ring)
    lines = [f"start: {trace.start_vertex}"]
    for step, rows in zip(trace.steps, trace.matrices_after()):
        if isinstance(step, LeafPullback):
            head = f"leaf-pullback: {step.new_vertex} attached to {step.attach_vertex}"
        else:
            head = f"edge-equalizer: {step.u} ~ {step.v}"
        lines.append(f"{head} via {format_factored(step.label, g.ring)}")
        for row in rows:
            lines.append(f"  [ {' '.join(format_element(x, work) for x in row)} ]")
    return "\n".join(lines)


def test_spline_set_matches_product_span_on_redundant_rows():
    rng = random.Random(103)
    for _ in range(60):
        n = rng.randrange(2, 13)
        width = rng.randrange(1, 4)
        g = EdgeLabeledGraph(RingDescriptor.residues(n), tuple(f"v{i}" for i in range(width)), ())
        rank = rng.randrange(0, 4)
        rows = [tuple(rng.randrange(n) for _ in range(width)) for _ in range(rank)]
        if rows and n ** (rank + 3) <= 20000:  # a repeated row, a multiple, a sum
            rows.append(rows[0])
            rows.append(tuple(3 * x % n for x in rows[-1]))
            rows.append(tuple((x + y) % n for x, y in zip(rows[0], rows[-1])))
        module = SplineModule(
            g,
            g.vertices,
            tuple(tuple(Residue(x, n) for x in row) for row in rows),
            tuple(0 for _ in rows),
        )
        assert spline_set(module) == product_span(rows, n, width)


def test_spline_set_of_rows_not_in_hermite_form():
    g = EdgeLabeledGraph(RingDescriptor.residues(12), ("u", "v", "w"), ())
    rows = [(4, 6, 0), (6, 4, 0), (0, 9, 3), (8, 0, 0)]
    module = SplineModule(g, g.vertices, tuple(tuple(Residue(x, 12) for x in r) for r in rows), (0, 0, 1, 0))
    assert spline_set(module) == product_span(rows, 12, 3)


def test_spline_set_completes_rows_that_lack_the_howell_property():
    """Over ``Z/8`` the row ``(4, 1)`` has pivot 4, so ``n/p = 2``, yet its
    multiples are 8 tuples: ``2*(4, 1) = (0, 2)`` is a row of pivot 2 that
    the one row does not show.  Counting ``n/p`` multiples of the given row
    would give 2 tuples; the Howell rows ``(4, 1), (0, 2)`` give ``2 * 4``."""
    g = EdgeLabeledGraph(RingDescriptor.residues(8), ("u", "v"), ())
    module = SplineModule(g, g.vertices, ((Residue(4, 8), Residue(1, 8)),), (0,))
    expected = frozenset((4 * c % 8, c) for c in range(8))
    assert spline_set(module) == expected == product_span([(4, 1)], 8, 2)
    assert len(expected) == 8
    assert modules._hermite_completed([(4, 1)], 2, g.ring) == (((4, 1), (0, 2)), (0, 1))
    assert modules._hermite_completed([], 2, g.ring) == (((8, 0), (0, 8)), (0, 1))


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_enumerations_leave_the_collector_as_they_found_it(enabled, monkeypatch):
    """Each enumeration pauses the cyclic collector while it runs and
    restores the state it found, also when it raises ``TooLarge``."""
    g = reduce_mod(int_graph(["u", "v", "w"], [("u", "v", 2), ("v", "w", 3)]), 12)
    wide = reduce_mod(int_graph([f"v{i}" for i in range(9)], []), 8)  # 8^9 > 10^7
    ring = RingDescriptor.residues(8)
    tall = SplineModule(
        EdgeLabeledGraph(ring, ("v",), ()), ("v",), ((Residue(1, 8),),) * 9, (0,) * 9
    )
    was = gc.isenabled()
    seen = []

    def spy(name):
        real = getattr(modules, name)

        def run(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(modules, name, run)

    try:
        (gc.enable if enabled else gc.disable)()
        for fn, arg in ((spline_set, solve_direct(g)), (bruteforce_values, g), (enumerate_bruteforce, g)):
            assert len(fn(arg)) == 12 * 6 * 4
            assert gc.isenabled() is enabled
        for fn, arg in ((bruteforce_values, wide), (enumerate_bruteforce, wide), (spline_set, tall)):
            with pytest.raises(TooLarge):
                fn(arg)
            assert gc.isenabled() is enabled
        # Inside, the collector is off.
        spy("_bruteforce_rows")
        spy("_hermite_completed")
        bruteforce_values(g)
        enumerate_bruteforce(g)
        spline_set(solve_direct(g))
        assert seen == [False, False, False]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@st.composite
def residue_graphs(draw):
    n = draw(st.integers(2, 12))
    nv = draw(st.integers(1, 4))
    while n**nv > 4000:
        nv -= 1
    vs = [f"v{i}" for i in range(nv)]
    edges = [
        (a, b, draw(st.sampled_from([0, 1, 2, 3, 4, 6, 8, 9, 12, 18, n])))
        for a, b in itertools.combinations(vs, 2)
        if draw(st.booleans())
    ]
    return reduce_mod(int_graph(vs, edges), n)


@settings(max_examples=60, deadline=None)
@given(residue_graphs())
def test_residue_three_way_agreement_property(g):
    brute = brute_set(g)
    assert spline_set(solve_direct(g)) == brute
    assert spline_set(incremental_assembled(g)[0]) == brute


@settings(max_examples=60, deadline=None)
@given(residue_graphs())
# The last vertex meets no congruence.
@example(reduce_mod(int_graph(["a", "b", "c"], [("a", "b", 2)]), 6))
# c = a mod 2 and c = b mod 4 disagree when a and b differ in parity, so
# those prefixes emit nothing.
@example(reduce_mod(int_graph(["a", "b", "c"], [("a", "c", 2), ("b", "c", 4)]), 8))
# A zero label imposes modulus n: the last value repeats the first.
@example(reduce_mod(int_graph(["a", "b"], [("a", "b", 0)]), 6))
@example(EdgeLabeledGraph(RingDescriptor.residues(5), (), ()))
@example(EdgeLabeledGraph(RingDescriptor.residues(5), ("v",), ()))
def test_bruteforce_splines_equal_dict_splines_property(g):
    values = bruteforce_values(g)
    assert values == product_bruteforce(g)
    n = g.ring.modulus
    expected = [Spline(g, {v: Residue(x, n) for v, x in zip(g.vertices, t)}) for t in values]
    assert enumerate_bruteforce(g) == expected
    assert value_list(g) == values


def test_bruteforce_rows_are_built_once_on_shared_residues():
    # 20^4 = 160,000 labelings, all splines.  The result holds one row and
    # one Spline per labeling; the search's prefixes and the row list it
    # wraps add at most a fifth to that at the peak.
    g = EdgeLabeledGraph(RingDescriptor.residues(20), ("a", "b", "c", "d"), ())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        splines = enumerate_bruteforce(g)
        retained, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(splines) == 20**4
    assert peak <= 1.2 * retained
    shared = {}
    for s in splines:
        row = s.value_tuple(g.vertices)
        assert row is s._row
        for x in row:
            assert shared.setdefault(x.value, x) is x
    assert shared == {x: Residue(x, 20) for x in range(20)}


QX_FACTORS = ("x", "x-1", "x+2", "x^2+1", "2*x-3")


def int_labels():
    return st.sampled_from([0, 2, 3, 5, 6, 10, 12, 15]).map(int_label)


def qx_products():
    factor = st.sampled_from(QX_FACTORS).map(lambda t: parse_element(t, QX))
    return st.dictionaries(factor, st.integers(1, 2), min_size=1, max_size=2).map(
        lambda fs: FactoredElement(tuple(make_factor(f, QX, m) for f, m in fs.items()))
    )


def qx_labels():
    return st.one_of(st.just(FactoredElement.zero()), qx_products())


@st.composite
def connected_graphs(draw, ring, labels):
    """Connected graphs on 1-5 vertices: a random spanning tree plus extra edges."""
    nv = draw(st.integers(1, 5))
    vs = [f"v{i}" for i in range(nv)]
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, nv)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)), max_size=4)):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    return normalize(ring, vs, [(vs[a], vs[b], draw(labels)) for a, b in sorted(pairs)])


def assert_three_way(g):
    """Check direct = incremental = replayed trace; return both modules."""
    direct = solve_direct(g)
    inc, traces = incremental_assembled(g)
    assert inc == direct
    for t in traces:
        assert replay_trace(g, t) == last_matrix(t)
    for s in direct.basis:
        assert gkm_check(g, s)
    return direct, inc


@settings(max_examples=60, deadline=None)
@given(connected_graphs(ZZ, int_labels()))
def test_int_three_way_agreement_property(g):
    assert_three_way(g)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(QX, qx_labels()))
def test_qx_three_way_agreement_property(g):
    assert_three_way(g)


@st.composite
def connected_orders(draw, g):
    """A start vertex and an insertion order of ``g``'s edges in which each
    edge touches the vertices built before it."""
    remaining = list(g.edges)
    if not remaining:
        return g.vertices[0], []
    first = remaining.pop(draw(st.integers(0, len(remaining) - 1)))
    order, built = [first], {first.a, first.b}
    while remaining:
        touching = [i for i, e in enumerate(remaining) if e.a in built or e.b in built]
        e = remaining.pop(draw(st.sampled_from(touching)))
        built.update((e.a, e.b))
        order.append(e)
    return draw(st.sampled_from([first.a, first.b])), order


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        connected_graphs(ZZ, int_labels()),
        connected_graphs(QX, qx_labels()),
        # A label that is a unit mod n drops its edge, so keep connected images.
        st.builds(reduce_mod, connected_graphs(ZZ, int_labels()), st.integers(2, 30)).filter(
            lambda g: len(connected_components(g)) == 1
        ),
    ),
    st.data(),
)
def test_insertion_order_does_not_matter(g, data):
    """The module is the limit of the edge diagram, so every connected
    insertion order grows the module ``solve_direct`` finds."""
    start, edges = data.draw(connected_orders(g))
    assert grown(g, start, edges) == solve_direct(g)


# --- the Hermite core against the plain reference ------------------------------------

INT_ENTRIES = (0, 0, 0, 1, -1, 2, -2, 3, -4, 6, 12, 35)
QX_ENTRIES = ("0", "0", "1", "-2", "x", "x-1", "2*x+2", "-x^2+1", "x^2-1", "3*x^2-3*x")


def ring_entries(ring):
    if ring.kind == "Int":
        return st.sampled_from(INT_ENTRIES)
    return st.sampled_from(QX_ENTRIES).map(lambda t: parse_element(t, ring))


@st.composite
def hermite_inputs(draw, ring=None):
    """``(ring, width, rows)`` over Int or Q[x]: random rows plus zero rows,
    repeats, multiples and sums of earlier rows (rank-deficient input), and
    sometimes a column cleared so that it carries no pivot."""
    if ring is None:
        ring = draw(st.sampled_from([ZZ, QX]))
    entry = ring_entries(ring)
    width = draw(st.integers(0, 5))
    rows = draw(st.lists(st.tuples(*[entry] * width), max_size=6))
    zero = ring.zero()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "repeat", "multiple", "sum"]))
        if kind == "zero" or not rows:
            rows.append((zero,) * width)
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "multiple":
            c = draw(entry)
            rows.append(tuple(c * x for x in draw(st.sampled_from(rows))))
        else:
            r1, r2 = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append(tuple(x + y for x, y in zip(r1, r2)))
    if width and draw(st.booleans()):
        cleared = draw(st.integers(0, width - 1))
        rows = [row[:cleared] + (zero,) + row[cleared + 1:] for row in rows]
    return ring, width, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(hermite_inputs())
# The first pivot entry divides the next (the one-subtraction step), the
# next divides it, the two are associates, or neither divides the other.
@example((ZZ, 3, [(2, 1, 0), (-6, 0, 5), (4, 3, 1)]))
@example((ZZ, 2, [(-6, 1), (3, 2), (-3, 5)]))
@example((ZZ, 3, [(4, 1, 1), (6, 1, 0), (0, -9, 12)]))
@example((QX, 2, [(parse_element("2*x+2", QX), parse_element("1", QX)),
                  (parse_element("x^2-1", QX), parse_element("x", QX))]))
@example((QX, 2, [(parse_element("x", QX), parse_element("1", QX)),
                  (parse_element("x-1", QX), parse_element("-2", QX))]))
def test_hermite_rows_match_reference(case):
    ring, width, rows = case
    assert hermite_rows(rows, width, ring) == reference_hermite_rows(rows, width, ring)


@settings(max_examples=300, deadline=None)
@given(hermite_inputs(ZZ), st.sampled_from([2, 6, 8, 9, 12, 30]))
# The Howell example: (4, 1) over Z/8 spans (0, 2) too.
@example((ZZ, 2, [(4, 1)]), 8)
def test_residue_hermite_matches_reference(case, n):
    """Over ``Z/n`` the one Hermite pass runs on the residue rows completed
    by ``n`` times each coordinate vector: ``_hermite_completed`` of the
    rows' representatives is the reference form, over ``Int``, of those
    representatives and the ``n*e_i``."""
    _, width, rows = case
    rows = [tuple(x % n for x in row) for row in rows]
    full = rows + [tuple(n if j == i else 0 for j in range(width)) for i in range(width)]
    completed = modules._hermite_completed(rows, width, RingDescriptor.residues(n))
    assert completed == reference_hermite_rows(full, width, ZZ)


@st.composite
def canonical_modules(draw):
    """A canonical module over Int, Q[x] or (lifted) Z/n, and a strategy
    for its labels: zero, or a product of factors, or for Z/n the ideal of
    a residue, whose lifted generator is its edge modulus."""
    kind = draw(st.sampled_from(["Int", "PolyQ", "ModInt"]))
    if kind == "ModInt":
        ring = RingDescriptor.residues(draw(st.sampled_from([6, 8, 12, 30])))
        labels = st.sampled_from([0, 2, 3, 4, 6, 9, 10]).map(
            lambda r: factored_from_residue(r, ring)
        )
    elif kind == "Int":
        ring, labels = ZZ, int_labels()
    else:
        ring, labels = QX, qx_labels()
    _, width, rows = draw(hermite_inputs(work_ring(ring)))
    width += 1
    rows = [row + (draw(ring_entries(work_ring(ring))),) for row in rows]
    canonical, _ = hermite_rows(rows, width, work_ring(ring))
    return ring, width, canonical, labels


@st.composite
def leaf_inputs(draw):
    """A canonical module, an attachment vertex and a label."""
    ring, width, rows, labels = draw(canonical_modules())
    return ring, width, rows, draw(st.integers(0, width - 1)), draw(labels)


@settings(max_examples=300, deadline=None)
@given(leaf_inputs(), st.booleans())
def test_leaf_step_is_hermite_of_extended_matrix(case, new_first):
    ring, width, rows, ia, label = case
    work = work_ring(ring)
    built = tuple(f"v{i}" for i in range(width))
    ends = ("new", built[ia]) if new_first else (built[ia], "new")
    gen = _edge_generator(label, ring)
    extended = [row + (row[ia],) for row in rows] + [(work.zero(),) * width + (gen,)]
    expected, _ = hermite_rows(extended, width + 1, work)
    column = {v: i for i, v in enumerate(built)}
    step = _step(built, column, rows, Edge(*ends, label), gen, work)
    assert isinstance(step, LeafPullback)
    fields = (step.new_vertex, step.attach_vertex, step.label, step.vertices_after)
    assert fields == ("new", built[ia], label, built + ("new",))
    assert tuple(map(tuple, _apply(rows, step))) == expected


@st.composite
def impose_inputs(draw):
    """A canonical module over the work ring and 1-3 constraints
    ``(a, b, gen)`` with lifted edge generators, zero among them; the two
    ends of a constraint may coincide, and constraints may repeat ends."""
    ring, width, rows, labels = draw(canonical_modules())
    end = st.integers(0, width - 1)
    gens = labels.map(lambda label: _edge_generator(label, ring))
    constraints = draw(st.lists(st.tuples(end, end, gens), min_size=1, max_size=3))
    return work_ring(ring), width, rows, constraints


@settings(max_examples=300, deadline=None)
@given(impose_inputs())
# Equality (zero generator) with a constraint whose ends coincide; the same
# ends twice with different moduli.
@example((ZZ, 2, ((1, 1), (0, 6)), [(0, 1, 0), (1, 1, 4)]))
@example((ZZ, 3, ((1, 1, 1), (0, 2, 0), (0, 0, 3)), [(0, 1, 4), (1, 0, 6)]))
# The sweep's branches: over a zero generator the last row leaves the module
# and corrects the row above it; a difference that neither divides nor is
# divided by the carried gcd grows its row's pivot (10 -> 20); over Q[x] the
# last difference, -x, is a unit modulo x - 1.
@example((ZZ, 3, ((1, 0, 0), (0, 2, 0), (0, 0, 1)), [(1, 2, 0)]))
@example((ZZ, 3, ((1, 0, 0), (0, 10, 4), (0, 0, 8)), [(1, 2, 12)]))
@example((QX, 2, ((parse_element("1", QX), parse_element("0", QX)),
                  (parse_element("0", QX), parse_element("x", QX))),
          [(0, 1, parse_element("x-1", QX))]))
def test_impose_matches_kernel_reference(case):
    ring, width, rows, constraints = case
    expected = reference_impose(rows, width, constraints, ring)
    assert _impose(rows, width, constraints, ring) == expected


@settings(max_examples=100, deadline=None)
@given(st.one_of(connected_graphs(ZZ, int_labels()), connected_graphs(QX, qx_labels())), st.data())
def test_direct_matches_identity_reference(g, data):
    # The direct solver shares its tree steps with the incremental build, so
    # direct = incremental no longer checks them; this reference does not.
    order = data.draw(st.permutations(g.vertices))
    assert solve_direct(g, order).rows == reference_component_rows(g, order)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        connected_graphs(ZZ, int_labels()),
        connected_graphs(QX, qx_labels()),
        st.builds(reduce_mod, connected_graphs(ZZ, int_labels()), st.integers(2, 30)),
    )
)
def test_every_step_matrix_is_the_walked_subgraphs_module(g):
    """Each step's rows in the forward pass, which a leaf extends from the
    rows before it, are the canonical module over the work ring of the
    edges walked so far, in ``vertices_after`` order.  The canonical form
    is unique, so the plain reference checks the forward pass without
    trusting it.  The edges and generators come from ``g``; over ``Z/n`` an
    edge enters the work ring ``Int`` as its integer modulus."""
    work = work_ring(g.ring)
    by_ends = {frozenset((e.a, e.b)): (e, gen) for e, gen in zip(g.edges, g.edge_generators)}
    for trace in incremental_assembled(g)[1]:
        walked = []
        for step, rows in zip(trace.steps, trace.matrices_after()):
            if isinstance(step, LeafPullback):
                ends = (step.attach_vertex, step.new_vertex)
            else:
                ends = (step.u, step.v)
            if frozenset(ends) in by_ends:
                e, gen = by_ends[frozenset(ends)]
                walked.append(Edge(e.a, e.b, int_label(gen) if work != g.ring else e.label))
            else:
                # A leaf on the unit ideal, where a reduction mod n split
                # the graph: it imposes nothing.
                assert isinstance(step, LeafPullback) and step.label.is_unit_ideal()
            sub = EdgeLabeledGraph(work, step.vertices_after, tuple(walked))
            assert rows == reference_component_rows(sub, step.vertices_after)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        connected_graphs(ZZ, int_labels()),
        connected_graphs(QX, qx_labels()),
        st.builds(reduce_mod, connected_graphs(ZZ, int_labels()), st.integers(2, 30)),
    )
)
def test_trace_text_prints_each_step_matrix(g):
    for trace in incremental_assembled(g)[1]:
        assert render_trace_text(g, trace) == _trace_text_reference(g, trace)


@st.composite
def forests(draw, ring, labels):
    """``(graph, vertex_order)``: two or three ``connected_graphs`` side by
    side plus an isolated vertex, ordered by dealing the components'
    vertices out in turn, so the order interleaves the components."""
    parts = draw(st.lists(connected_graphs(ring, labels), min_size=2, max_size=3))
    vertices, edges, hands = [], [], []
    for k, part in enumerate(parts):
        name = {v: f"c{k}{v}" for v in part.vertices}
        vertices += name.values()
        edges += [(name[e.a], name[e.b], e.label) for e in part.edges]
        hands.append(draw(st.permutations(list(name.values()))))
    order = [v for turn in itertools.zip_longest(*hands) for v in turn if v is not None]
    order.insert(draw(st.integers(0, len(order))), "lone")
    return normalize(ring, vertices + ["lone"], edges), order


@settings(max_examples=100, deadline=None)
@given(st.one_of(forests(ZZ, int_labels()), forests(QX, qx_labels())))
def test_disconnected_matches_identity_reference(case):
    # Each component's rows are scattered from its built columns into the
    # order's columns; the reference cuts the identity by every edge, so it
    # needs no components.
    g, order = case
    expected = reference_component_rows(g, order)
    assert solve_direct(g, order).rows == expected
    assert incremental_assembled(g, order)[0].rows == expected


def connected_or_forest(ring, labels):
    """A connected graph, or a forest of them plus an isolated vertex."""
    return st.one_of(connected_graphs(ring, labels), forests(ring, labels).map(lambda case: case[0]))


@st.composite
def graphs_in_any_order(draw):
    """``(graph, order)`` over ``Int``, ``Q[x]`` or ``Z/n``, with zero labels,
    and ``order`` any permutation of the vertices.  A reduction mod n drops
    the edges whose label becomes a unit, so it isolates vertices too."""
    g = draw(st.one_of(
        connected_or_forest(ZZ, int_labels()),
        connected_or_forest(QX, qx_labels()),
        st.builds(reduce_mod, connected_or_forest(ZZ, int_labels()), st.integers(2, 30)),
    ))
    return g, tuple(draw(st.permutations(g.vertices)))


def residue_reference_rows(g, order):
    """The canonical rows of a ``Z/n`` graph from the plain references: the
    integer module of the edge moduli, completed by ``n`` times each
    coordinate vector, in Hermite form, kept where the pivot is not 0 mod n."""
    n, width = g.ring.modulus, len(order)
    lifted = EdgeLabeledGraph(
        ZZ, g.vertices, tuple(Edge(e.a, e.b, int_label(gen)) for e, gen in zip(g.edges, g.edge_generators))
    )
    full = list(reference_component_rows(lifted, order))
    full += [tuple(n if j == i else 0 for j in range(width)) for i in range(width)]
    rows, pivots = reference_hermite_rows(full, width, ZZ)
    return tuple(tuple(Residue(x, n) for x in row) for row, p in zip(rows, pivots) if row[p] % n)


@settings(max_examples=150, deadline=None)
@given(graphs_in_any_order())
def test_the_walk_follows_any_vertex_order(case):
    """Both solvers visit the vertices in the requested order, so every
    step's rows sit on a prefix of it, and over every ring the walk's rows
    are already canonical there: ``_canonical`` of the walk's rows, or of
    the last step's, is the module.  Over ``Z/n`` those rows hold ``n``
    times each coordinate vector, which ``_canonical`` drops.  Both match
    the plain reference, the trace replays, and ``flow_up_normalize``, the
    one path that runs a Hermite pass (over ``Z/n`` on rows completed by
    ``n`` times each coordinate vector), gives the module back from its
    basis."""
    g, order = case
    direct = solve_direct(g, order)
    inc, (trace,) = incremental_assembled(g, order)
    assert inc == direct
    if g.ring.kind == "ModInt":
        assert direct.rows == residue_reference_rows(g, order)
    else:
        assert direct.rows == reference_component_rows(g, order)
    for step in trace.steps:
        assert step.vertices_after == order[: len(step.vertices_after)]
    assert trace.start_matrix == ((work_ring(g.ring).one(),),)
    built = trace.steps[-1].vertices_after if trace.steps else (trace.start_vertex,)
    last = last_matrix(trace)
    assert built == order
    assert replay_trace(g, trace) == last
    assert _canonical(g, order, last) == direct
    for chords_at_once in (False, True):
        assert _canonical(g, order, _walk(g, order, chords_at_once)[0]) == direct
    assert flow_up_normalize(direct.basis, order, g) == direct


@pytest.mark.parametrize(
    "g",
    [
        int_graph(["u", "v", "w", "z"], [("u", "v", 3), ("v", "w", 5), ("u", "w", 7), ("w", "z", 0)]),
        qx_triangle(),
        reduce_mod(int_graph(["u", "v", "w", "z"], [("u", "v", 6), ("v", "w", 0), ("u", "w", 3), ("v", "z", 0)]), 12),
    ],
    ids=["Int", "PolyQ", "ModInt"],
)
def test_the_solvers_run_no_hermite_pass(g, monkeypatch):
    """The walk's rows leave as the module, so neither solver calls
    ``hermite_rows``, in the default or the reversed order, over ``Int``,
    ``Q[x]`` or ``Z/n`` with zero labels.  Its one caller in the package is
    ``_hermite_completed``, which serves ``flow_up_normalize``, whose
    generators may be any, and ``spline_set``, which enumerates over Howell
    rows.  Kernels and spans share one elimination pass: ``hermite_rows``
    sweeps each column as ``_impose`` sweeps each congruence, and only
    ``_impose`` finishes the pivots."""
    calls = []

    def spy(*args):
        calls.append(args)
        return hermite_rows(*args)

    monkeypatch.setattr(modules, "hermite_rows", spy)
    for order in (g.vertices, g.vertices[::-1]):
        direct = solve_direct(g, order)
        assert incremental_assembled(g, order)[0] == direct
    assert calls == []
    assert flow_up_normalize(direct.basis, order, g) == direct
    assert len(calls) == 1
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in pathlib.Path(modules.__file__).parent.glob("*.py")
    ]

    def callers(name):
        return {
            fn.name
            for tree in trees
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for call in ast.walk(fn)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == name
        }

    assert callers("hermite_rows") == {"_hermite_completed"}
    assert callers("_hermite_completed") == {"flow_up_normalize", "spline_set"}
    # One elimination pass: a Hermite column is a sweep over the zero
    # generator, and the finishing pass that normalizes pivots is _impose's.
    assert callers("_sweep") == {"_impose", "hermite_rows"}
    assert callers("_row_combine") == {"_sweep"}
    assert callers("_add_pivot_row") == {"_impose"}


# --- membership against the plain reference ------------------------------------------

INVERTIBLE = {"Int": ("2", "3", "5"), "PolyQ": QX_FACTORS}


def _combination(coeffs, rows, zero):
    out = [zero] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [x + c * y for x, y in zip(out, row)]
    return out


@st.composite
def membership_cases(draw):
    """A module and a labeling to test against it.

    The module is a basis over Int, Q[x] or Z/n, or over Int or Q[x] the
    same basis localized at one or two factors of its labels.  The labeling
    combines the rows of that basis or, over Int and Q[x], the rows of the
    module restricted at those factors, whose coefficients need the
    inverted denominators; one value may then be moved by one, which
    mostly makes a non-member.  Over Z/n it may also be a random
    labeling."""
    kind = draw(st.sampled_from(["Int", "PolyQ", "ModInt"]))
    if kind == "ModInt":
        g = draw(residue_graphs())
        m = solve_direct(g)
        n = g.ring.modulus
        rows = [[x.value for x in row] for row in m.rows]
        coeffs = draw(st.lists(st.integers(0, n - 1), min_size=len(rows), max_size=len(rows)))
        values = _combination(coeffs, rows, 0)
        if draw(st.booleans()):
            values = draw(st.lists(st.integers(0, n - 1), min_size=len(values), max_size=len(values)))
        return m, Spline(g, {v: Residue(x % n, n) for v, x in zip(m.vertex_order, values)})
    ring, labels = (ZZ, int_labels()) if kind == "Int" else (QX, qx_labels())
    g = draw(connected_graphs(ring, labels))
    m = solve_direct(g)
    # Invert factors of the labels, or of the ring when every label is zero.
    present = {f.element: f for e in g.edges for f in e.label.factors}
    invert = [make_factor(parse_element(t, ring), ring) for t in INVERTIBLE[kind]]
    invert = draw(st.lists(st.sampled_from(list(present.values()) or invert),
                           min_size=1, max_size=2, unique_by=lambda f: f.element))
    rows = m.rows
    if draw(st.booleans()):
        rows = solve_direct(restrict(g, invert).graph, m.vertex_order).rows
    if draw(st.booleans()):
        m = localize_module(m, invert)
    entry = st.one_of(st.integers(-3, 3), ring_entries(ring))
    coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    values = _combination(coeffs, rows, ring.zero())
    if draw(st.booleans()):
        i = draw(st.integers(0, len(values) - 1))
        values[i] = values[i] + ring.one()
    return m, Spline(g, dict(zip(m.vertex_order, values)))


@settings(max_examples=300, deadline=None)
@given(membership_cases())
def test_membership_matches_reference(case):
    m, s = case
    res, ref = membership(m, s), reference_membership(m, s)
    assert repr((res.member, res.coefficients)) == repr((ref.member, ref.coefficients))


# --- closed forms and the cost cliffs of the Hermite pass -------------------------


def pivot_product(m):
    return math.prod(row[p] for row, p in zip(m.rows, m.pivots))


@st.composite
def labeled_shapes(draw, cycle, labels=st.integers(2, 89), max_vertices=11):
    """``(vertices, edges, vertex_order)``: a random tree on 2 to
    ``max_vertices`` vertices or a cycle on 3 to ``max_vertices``, labels
    drawn from ``labels`` (integers 2-89) and a random vertex order."""
    nv = draw(st.integers(3 if cycle else 2, max_vertices))
    vs = [f"v{i}" for i in range(nv)]
    if cycle:
        pairs = [(i, (i + 1) % nv) for i in range(nv)]
    else:
        pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, nv)]
    drawn = draw(st.lists(labels, min_size=len(pairs), max_size=len(pairs)))
    edges = [(vs[a], vs[b], n) for (a, b), n in zip(pairs, drawn)]
    return vs, edges, draw(st.permutations(vs))


@settings(max_examples=100, deadline=None)
@given(labeled_shapes(cycle=False))
def test_tree_index_is_product_of_labels(case):
    # Gilbert-Polster-Tymoczko: 1 and, per edge, its label on the side of
    # the edge away from the root form a basis, so the index is prod(l_e).
    # These are the direct solver's own leaf pullbacks, so the cycle
    # formulas below carry the independent index check.
    vs, edges, order = case
    m = solve_direct(int_graph(vs, edges), order)
    assert pivot_product(m) == math.prod(n for _, _, n in edges)


@settings(max_examples=100, deadline=None)
@given(labeled_shapes(cycle=True))
def test_cycle_index_is_product_over_gcd(case):
    vs, edges, order = case
    labels = [n for _, _, n in edges]
    m = solve_direct(int_graph(vs, edges), order)
    assert pivot_product(m) == math.prod(labels) // math.gcd(*labels)


@settings(max_examples=100, deadline=None)
@given(labeled_shapes(cycle=True, labels=qx_products(), max_vertices=8))
def test_qx_cycle_index_is_product_over_gcd(case):
    vs, edges, order = case
    g = normalize(QX, vs, edges)
    gens = g.edge_generators
    gcd = functools.reduce(lambda a, b: ring_gcd(a, b, QX), gens)
    m = solve_direct(g, order)
    assert pivot_product(m) == normalized_associate(math.prod(gens) // gcd, QX)


PRIMES_BELOW_50 = [p for p in range(2, 50) if all(p % d for d in range(2, p))]


def two_prime_graph(pairs, seed):
    rng = random.Random(seed)
    nv = 1 + max(max(pair) for pair in pairs)
    vs = [f"v{i}" for i in range(nv)]
    edges = [
        (vs[a], vs[b], rng.choice(PRIMES_BELOW_50) * rng.choice(PRIMES_BELOW_50))
        for a, b in pairs
    ]
    return int_graph(vs, edges)


def test_incremental_cycle_entries_stay_small(monkeypatch):
    # Each equalizer sweeps up from the last row, so no row carries every
    # earlier pivot's entries along (725-bit entries when a Hermite pass
    # folded the first pivot first).
    from gsplines import modules

    g = two_prime_graph([(i, (i + 1) % 36) for i in range(36)], 0)
    combine = modules._row_combine
    widest = []

    def spy(r1, r2, a, b, ring):
        out = combine(r1, r2, a, b, ring)
        widest.append(max(abs(x).bit_length() for row in out[1:] for x in row))
        return out

    monkeypatch.setattr(modules, "_row_combine", spy)
    incremental_assembled(g)
    assert widest and max(widest) < 64


@pytest.mark.parametrize("vertices, edges, calls", [
    # A triangle, a square with one diagonal, a path and an isolated vertex:
    # one walk over the whole graph, so its three chords go in one call.
    ("abcdefghijk", [("a", "b", 3), ("b", "c", 5), ("a", "c", 7),
      ("d", "e", 2), ("e", "f", 3), ("f", "g", 5), ("d", "g", 7), ("d", "f", 11),
      ("h", "i", 6), ("i", "j", 10)], [(3, 11)]),
    # A tree: its leaf pullbacks are the module, and nothing is imposed.
    ("abcdef", [("a", "b", 3), ("a", "c", 5), ("c", "d", 7), ("c", "e", 2), ("b", "f", 0)],
     [(0, 6)]),
])
def test_direct_imposes_each_components_chords_at_once(monkeypatch, vertices, edges, calls):
    from gsplines import modules

    g = int_graph(list(vertices), edges)
    seen = []
    impose = modules._impose

    def spy(rows, width, constraints, ring):
        seen.append((len(constraints), width))
        return impose(rows, width, constraints, ring)

    monkeypatch.setattr(modules, "_impose", spy)
    solve_direct(g)
    assert seen == calls
    chords = len(g.edges) - len(g.vertices) + len(connected_components(g))
    assert seen == [(chords, len(g.vertices))]


# Graphs that stay well under a second only while each chord is one sweep up
# the rows (direct integer K40 took about a second, and Q[x] K16 over half a
# second each way, when a Hermite pass folded a difference column through
# every row and refiled the folded rows), while the direct solver imposes
# only the chords on a spanning tree's rows (direct integer C200 took 0.3 s,
# and C400 over 2 s, with one difference column per edge), and while a leaf
# pullback appends its new column to the rows in place and records only that
# column (integer C400 took 0.24 s to build and 0.28 s to replay, and its
# trace held 178 MB, when every leaf copied every row into a full matrix).


def int_complete_graph(n):
    return two_prime_graph([(i, j) for i in range(n) for j in range(i + 1, n)], 5)


def int_cycle(n):
    return two_prime_graph([(i, (i + 1) % n) for i in range(n)], 5)


def test_three_way_agreement_on_int_k16():
    assert_three_way(int_complete_graph(16))


def test_three_way_agreement_on_int_k40():
    assert_three_way(int_complete_graph(40))


def test_three_way_agreement_on_int_c200():
    assert_three_way(int_cycle(200))


def test_three_way_agreement_on_int_c400():
    assert_three_way(int_cycle(400))


def test_incremental_c400_trace_stays_small():
    # 399 leaves record 80k column entries; full matrices were 21M.
    g = int_cycle(400)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = incremental_assembled(g)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result[0].rank == 400
    assert retained < 16 * 10**6


def test_long_path_derives_its_last_matrix_without_recursion():
    # The forward pass applies each leaf to one running matrix in a loop,
    # not by recursion, so a path longer than the recursion limit works.
    n = 1100
    rng = random.Random(5)
    vs = [f"p{i:04d}" for i in range(n)]
    g = int_graph(vs, [(vs[i], vs[i + 1], rng.choice(PRIMES_BELOW_50)) for i in range(n - 1)])
    m, (trace,) = incremental_assembled(g)
    assert trace.steps[-1].vertices_after == m.vertex_order
    assert last_matrix(trace) == m.rows


@pytest.mark.parametrize("n", [8, 12, 16], ids=["K8", "K12", "K16"])
def test_three_way_agreement_on_qx_complete_graph(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    roots = [r - len(pairs) // 2 for r in range(len(pairs))]
    random.Random(5).shuffle(roots)
    vs = [f"v{i}" for i in range(n)]
    linear = lambda r: parse_element(f"x-{r}" if r >= 0 else f"x+{-r}", QX)
    edges = [
        (vs[a], vs[b], FactoredElement((make_factor(linear(r), QX),)))
        for (a, b), r in zip(pairs, roots)
    ]
    # The pivots are monic products of the labels x - r, so their
    # coefficients are integral and stored as ints; the entries above them
    # carry genuine rationals, never a Fraction with denominator 1.
    for module in assert_three_way(normalize(QX, vs, edges)):
        for row, col in zip(module.rows, module.pivots):
            assert {type(c) for _, c in row[col].terms} == {int}
            for p in row:
                assert all(type(c) is int or c.denominator > 1 for _, c in p.terms)


def test_qx_basis_keeps_rational_coefficients():
    edges = [("u", "v", "2*x-3"), ("v", "w", "x^2+1"), ("u", "w", "x")]
    g = normalize(QX, ["u", "v", "w"], [
        (a, b, FactoredElement((make_factor(parse_element(t, QX), QX),))) for a, b, t in edges
    ])
    for module in assert_three_way(g):
        coefficients = [c for row in module.rows for p in row for _, c in p.terms]
        assert {type(c) for c in coefficients} == {int, Fraction}
        assert any(type(c) is Fraction and c == Fraction(3, 2) for c in coefficients)


# Vertex orders that stay well under a second only while the walk visits the
# vertices in the requested order, so that its rows are canonical in that
# order at every step.  When each component was walked in an order of its
# own and the rows were put in Hermite form again in the requested order,
# integer C300 in a shuffled order took 43 s, and Q[x] K12 in the reversed
# order ran past 9 minutes of CPU (K10 took 22.7 s); the entries between
# the two forms grew to 337,687 bits for a basis of 21-bit entries.


def qx_complete_graph(n):
    """``Q[x]`` ``K_n`` whose edges carry distinct linear labels ``x - r``."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    roots = [r - len(pairs) // 2 for r in range(len(pairs))]
    random.Random(5).shuffle(roots)
    vs = [f"v{i}" for i in range(n)]
    edges = [
        (vs[a], vs[b], FactoredElement((make_factor(parse_element(f"x-({r})", QX), QX),)))
        for (a, b), r in zip(pairs, roots)
    ]
    return normalize(QX, vs, edges)


def assert_three_way_in_order(g, order):
    """Direct = incremental = replayed trace in ``order``, which the trace
    visits; the last step's matrix is the basis."""
    direct = solve_direct(g, order)
    inc, (trace,) = incremental_assembled(g, order)
    assert inc == direct
    assert trace.steps[-1].vertices_after == tuple(order)
    assert replay_trace(g, trace) == last_matrix(trace) == direct.rows


def shuffled(vertices):
    return random.Random(1).sample(vertices, len(vertices))


def test_three_way_agreement_on_int_c300_in_a_shuffled_order():
    g = int_cycle(300)
    assert_three_way_in_order(g, shuffled(g.vertices))


@pytest.mark.parametrize("arrange", [lambda vs: vs[::-1], shuffled], ids=["reversed", "shuffled"])
def test_three_way_agreement_on_qx_k12_in_another_order(arrange):
    g = qx_complete_graph(12)
    assert_three_way_in_order(g, arrange(g.vertices))
