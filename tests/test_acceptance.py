"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from gsplines import (
    Poly,
    Spline,
    base_change_commutes,
    contract_edge,
    delete_edge,
    enumerate_bruteforce,
    exact_divide,
    flow_up_normalize,
    format_element,
    incremental_assembled,
    localize_module,
    make_factor,
    membership,
    parse_element,
    reduce_mod,
    restrict,
    solve_direct,
    spectrum_report,
    spline_set,
    verify_certificate,
)
from gsplines.formats import certificate_to_json
from conftest import (
    QXY,
    ZZ,
    fixture_path,
    hexchain_graph,
    hexpoly_graph,
    hexpoly_opens,
    int_graph,
    HEXPOLY_CENTERS,
    HEXPOLY_LINES,
)


def brute_set(gn):
    return frozenset(
        tuple(x.value for x in s.value_tuple(gn.vertices))
        for s in enumerate_bruteforce(gn)
    )


def connected_shapes(max_vertices):
    """Every connected graph on the vertex sets {v0..vk-1}, k <= max."""
    shapes = []
    for k in range(1, max_vertices + 1):
        vs = [f"v{i}" for i in range(k)]
        all_edges = list(itertools.combinations(vs, 2))
        for r in range(len(all_edges) + 1):
            for subset in itertools.combinations(all_edges, r):
                parent = {v: v for v in vs}

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                for a, b in subset:
                    parent[find(a)] = find(b)
                if len({find(v) for v in vs}) == 1:
                    shapes.append((vs, subset))
    return shapes


def test_criterion_1_limit_equivalence():
    """Brute force, the direct solver, and the incremental builder agree on
    an exhaustive family of connected shapes (<= 4 vertices, <= 6 edges),
    labels drawn from {0..6}, over Z/n for every n in 2..8."""
    t0 = time.time()
    rng = random.Random(20260810)
    shapes = connected_shapes(4)
    assert len(shapes) == 44  # 1 + 1 + 4 + 38 connected spanning shapes
    cases = 0
    for vs, subset in shapes:
        for n in range(2, 9):
            draws = 3
            if len(subset) <= 1:
                # small shapes: exhaust every label assignment
                assignments = list(itertools.product(range(7), repeat=len(subset)))
            else:
                assignments = [
                    tuple(rng.randrange(0, 7) for _ in subset) for _ in range(draws)
                ]
            for labels in assignments:
                g = int_graph(vs, [(a, b, l) for (a, b), l in zip(subset, labels)])
                gn = reduce_mod(g, n)
                brute = brute_set(gn)
                direct = spline_set(solve_direct(gn))
                incremental = spline_set(incremental_assembled(gn)[0])
                assert brute == direct == incremental, (vs, subset, labels, n)
                cases += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 1: limit equivalence on {cases} cases in {elapsed:.1f}s")


def test_criterion_2_triangle_golden():
    """The integer-cycle fixture: exact flow-up basis and the Z/105 count
    equal to the basis lattice index 105^3 / (1*3*35) = 11025."""
    triangle = int_graph(
        ["u", "v", "w"], [("u", "v", 3), ("v", "w", 5), ("u", "w", 7)]
    )
    m = solve_direct(triangle)
    assert m.rows == ((1, 1, 1), (0, 3, 28), (0, 0, 35))
    gn = reduce_mod(triangle, 105)
    bf = brute_set(gn)
    assert len(bf) == 11025
    assert bf == spline_set(solve_direct(gn))
    print("PASS criterion 2: triangle golden basis and 11025 splines mod 105")


def test_criterion_3_hexchain_restriction():
    """Inverting {3, 5} plus the cofactor primes {2, 11, 13} trivializes the
    first two hexagons and leaves the third as a clean cycle."""
    g = hexchain_graph()
    out = restrict(g, [make_factor(p, ZZ) for p in (3, 5, 2, 11, 13)])
    assert out.classification.kind == "DeterminedByCycle"
    assert out.classification.cycle == ("A3", "B3", "C3", "D3", "E3", "F3")
    assert len(out.trivialized_edges) == 12
    trivialized = {e.a[-1] for e in out.trivialized_edges} | {
        e.b[-1] for e in out.trivialized_edges
    }
    assert trivialized == {"1", "2"}
    for e in out.graph.edges:
        assert [f.element for f in e.label.factors] == [7]
    print("PASS criterion 3: hexagon chain restricts to the third cycle")


def test_criterion_4_certificate_golden():
    """The 18-vertex two-variable fixture with its three opens: every
    restriction determined by a cycle, but the cover undecided, so the
    verdict is UNKNOWN; exact report match against the golden file.

    The opens do not cover: all three products vanish at x = 505,
    y^2 = 1 - 495^2, where U1 and U2 invert (x-10)^2+y^2-1 and U2 and U3
    invert (x-1000)^2+y^2-1."""
    g = hexpoly_graph()
    report = verify_certificate(g, hexpoly_opens())
    assert report.verdict == "UNKNOWN"
    assert report.cover.status == "Inconclusive"
    kinds = [o.classification.kind for _, o in report.per_open]
    assert kinds == ["DeterminedByCycle"] * 3
    with open(fixture_path("certificate_hexpoly_golden.json"), "r") as fh:
        golden = json.load(fh)
    assert certificate_to_json(report, g.ring) == golden
    print("PASS criterion 4: certificate fixture verdict UNKNOWN, golden match")


def test_criterion_5_base_change_commutation():
    """500 randomized (graph, inverted-set) pairs over the integers:
    the spectrum reports commute with restriction, and the two bases agree
    after localization (membership with inverted denominators, both ways)."""
    rng = random.Random(55)
    primes = [2, 3, 5, 7, 11]
    checked = 0
    for _ in range(500):
        nv = rng.randrange(2, 7)
        vs = [f"v{i}" for i in range(nv)]
        edges = []
        for _ in range(rng.randrange(1, nv + 3)):
            a, b = rng.sample(vs, 2)
            if rng.randrange(6) == 0:
                label = 0
            else:
                label = rng.choice(primes) * rng.choice([1, 1, rng.choice(primes)])
            edges.append((a, b, label))
        g = int_graph(vs, edges)
        invert = [make_factor(p, ZZ) for p in rng.sample(primes, rng.randrange(0, 4))]
        check = base_change_commutes(g, invert)
        assert check.commutes, (edges, invert, check.discrepancies)

        original = solve_direct(g)
        restricted_graph = restrict(g, invert).graph
        restricted = solve_direct(restricted_graph)
        loc_original = localize_module(original, invert)
        loc_restricted = localize_module(restricted, invert)
        for s in restricted.basis:
            res = membership(loc_original, Spline(g, dict(s.values)))
            assert res.member, (edges, invert, s.values)
        for s in original.basis:
            res = membership(loc_restricted, Spline(restricted_graph, dict(s.values)))
            assert res.member, (edges, invert, s.values)
        checked += 1
    assert checked == 500
    print("PASS criterion 5: base change commutation on 500 random pairs")


def test_criterion_6_spectrum_deletion_contraction():
    """Hole and component counts across deletion and contraction."""
    triangle = int_graph(
        ["u", "v", "w"], [("u", "v", 3), ("v", "w", 5), ("u", "w", 7)]
    )
    assert spectrum_report(triangle).hole_count == 1
    after_delete = delete_edge(triangle, "u", "v")
    rep = spectrum_report(after_delete)
    assert rep.hole_count == 0 and rep.components == 1
    after_contract = contract_edge(triangle, "u", "v")
    rep = spectrum_report(after_contract)
    assert rep.hole_count == 1
    assert after_contract.edges[0].label.expand(ZZ) == 35
    two = int_graph(["u", "v"], [("u", "v", 3)])
    rep = spectrum_report(delete_edge(two, "u", "v"))
    assert rep.components == 2
    print("PASS criterion 6: spectrum counts across delete/contract")


def test_criterion_7_parser_roundtrip_and_fixture_labels():
    """1000 random canonical polynomials survive format/parse unchanged;
    the two-variable fixture labels re-expand and divide by their factors."""
    rng = random.Random(77)
    for _ in range(1000):
        terms = {}
        for _ in range(rng.randrange(0, 7)):
            exps = (rng.randrange(0, 6), rng.randrange(0, 6))
            num = rng.randrange(-100, 101)
            den = rng.randrange(1, 101)
            if num:
                terms[exps] = Fraction(num, den)
        p = Poly(2, terms)
        assert parse_element(format_element(p, QXY), QXY) == p
    for tag in (1, 2, 3):
        line = parse_element(HEXPOLY_LINES[tag], QXY)
        for i in range(6):
            circle_text = f"(x-{HEXPOLY_CENTERS[tag] * (i + 1)})^2+y^2-1"
            circle = parse_element(circle_text, QXY)
            product = parse_element(
                f"({HEXPOLY_LINES[tag]})*({circle_text})", QXY
            )
            assert exact_divide(product, line, QXY) == circle
            assert exact_divide(product, circle, QXY) == line
    print("PASS criterion 7: parser round trip and fixture label division")
