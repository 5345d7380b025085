import itertools
import random

import pytest

from gsplines import (
    DisconnectedInput,
    EdgeEqualizer,
    FactoredElement,
    LeafPullback,
    Residue,
    RingDescriptor,
    Spline,
    TooLarge,
    UnsupportedRing,
    build_incremental,
    connected_components,
    enumerate_bruteforce,
    flow_up_normalize,
    gkm_check,
    incremental_assembled,
    membership,
    normalize,
    parse_element,
    reduce_mod,
    replay_trace,
    solve_direct,
    spline_set,
)
from conftest import QX, ZZ, int_graph, int_label


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
    assert m.leading_entries == (("u", 1), ("v", 3), ("w", 35))
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


def test_solve_univariate_polynomials():
    from gsplines import make_factor

    lbl = lambda t: FactoredElement((make_factor(parse_element(t, QX), QX),))
    g = normalize(
        QX,
        ["u", "v", "w"],
        [("u", "v", lbl("x")), ("v", "w", lbl("x-1")), ("u", "w", lbl("x-2"))],
    )
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


# --- build_incremental ----------------------------------------------------------


def test_incremental_path():
    g = int_graph(["u", "v", "w"], [("u", "v", 3), ("v", "w", 5)])
    m, trace = build_incremental(g)
    assert m.rows == ((1, 1, 1), (0, 3, 3), (0, 0, 5))
    assert [type(s).__name__ for s in trace.steps] == ["LeafPullback", "LeafPullback"]
    assert brute_set(reduce_mod(g, 15)) == spline_set(solve_direct(reduce_mod(g, 15)))


def test_incremental_triangle_matches_direct(triangle):
    m, trace = build_incremental(triangle)
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
    m, trace = build_incremental(g)
    assert m.rows == ((1, 1), (0, 3))
    assert len(trace.steps) == 1 and isinstance(trace.steps[0], LeafPullback)


def test_incremental_trace_replays(triangle):
    m, trace = build_incremental(triangle)
    final = replay_trace(triangle, trace)
    assert final == m.rows


def test_incremental_order_independent(triangle):
    rng = random.Random(17)
    pairs = [(e.a, e.b) for e in triangle.edges]
    base = build_incremental(triangle)[0].rows
    seen_valid = 0
    for _ in range(12):
        order = rng.sample(pairs, len(pairs))
        try:
            m, _ = build_incremental(triangle, order)
        except DisconnectedInput:
            continue  # order did not grow a connected patch
        seen_valid += 1
        assert m.rows == base
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
        base = build_incremental(g)[0].rows
        pairs = [(e.a, e.b) for e in g.edges]
        for _ in range(6):
            order = rng.sample(pairs, len(pairs))
            try:
                m, _ = build_incremental(g, order)
            except DisconnectedInput:
                continue
            assert m.rows == base


def test_incremental_rejects_detached_order():
    g = int_graph(
        ["a", "b", "c", "d"],
        [("a", "b", 3), ("b", "c", 5), ("c", "d", 7)],
    )
    with pytest.raises(DisconnectedInput):
        build_incremental(g, [("a", "b"), ("c", "d"), ("b", "c")])


def test_incremental_disconnected_input():
    g = int_graph(["a", "b", "c", "d"], [("a", "b", 3), ("c", "d", 5)])
    with pytest.raises(DisconnectedInput):
        build_incremental(g)
    m, traces = incremental_assembled(g)
    assert m.rows == solve_direct(g).rows
    assert len(traces) == 2


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
            if t.steps:
                assert replay_trace(g, t) == t.steps[-1].matrix_after


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
    m, trace = build_incremental(g)
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
