import itertools
import json
import math
import random

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsplines import (
    BasicOpen,
    RingDescriptor,
    Spline,
    check_cover,
    classify_restrictions,
    exact_divide,
    format_element,
    gkm_check,
    make_factor,
    membership,
    parse_element,
    solve_direct,
    verify_certificate,
)
from gsplines.formats import dump_json, opens_from_json
from gsplines.rings import canonical_key
from conftest import FACTOR_TEXTS, QX, QXY, ZZ, hexpoly_opens, int_graph, parse_factor


def int_open(name, *primes):
    return BasicOpen(name, tuple(make_factor(p, ZZ) for p in primes))


def qx_open(name, *texts):
    return BasicOpen(name, tuple(make_factor(parse_element(t, QX), QX) for t in texts))


def xy_open(name, *texts):
    return BasicOpen(name, tuple(make_factor(parse_element(t, QXY), QXY) for t in texts))


# --- check_cover -----------------------------------------------------------------


def test_cover_integers():
    assert check_cover(ZZ, [int_open("U1", 2), int_open("U2", 3)]).status == "Covers"
    # inverting 4 normalizes to the prime 2, so both opens share it
    from gsplines import integer_factors

    u2 = BasicOpen("U2", integer_factors(4, ZZ))
    status = check_cover(ZZ, [int_open("U1", 2), u2])
    assert status.status == "FailsToCover"
    assert status.common_factor == 2


def test_cover_univariate_witness():
    # the defining products are (x-3)(x-5), (x-3)(x-7), (x-5)(x-7); their
    # pairwise overlaps cancel in the threefold gcd
    opens = [
        qx_open("U1", "x-3", "x-5"),
        qx_open("U2", "x-3", "x-7"),
        qx_open("U3", "x-5", "x-7"),
    ]
    assert check_cover(QX, opens).status == "Covers"


def test_cover_multivariate_witness_and_failure():
    opens = [
        xy_open("U1", "x-3", "x-5"),
        xy_open("U2", "x-3", "x-7"),
        xy_open("U3", "x-5", "x-7"),
    ]
    assert check_cover(QXY, opens).status == "Covers"
    shared = [xy_open("U1", "y", "x-3"), xy_open("U2", "y", "x-5")]
    status = check_cover(QXY, shared)
    assert status.status == "FailsToCover"
    assert status.common_factor == parse_element("y", QXY)
    lonely = [xy_open("U1", "(x-10)^2+y^2-1"), xy_open("U2", "(x-20)^2+y^2-1")]
    assert check_cover(QXY, lonely).status == "Inconclusive"


# (0, 1) lies in neither open, so the opens do not cover, although their
# x-only factors x and x-1 are coprime
POINT_OUTSIDE = (QXY, [xy_open("U1", "x", "y"), xy_open("U2", "x-1", "y-1")])


def test_cover_misses_a_point_outside_every_open():
    assert check_cover(*POINT_OUTSIDE).status == "Inconclusive"


def test_cover_gcd_catches_a_declared_irreducible_that_factors():
    status = check_cover(QXY, [xy_open("U1", "x^4-1"), xy_open("U2", "x-1")])
    assert status.status == "FailsToCover"
    assert status.common_factor == parse_element("x-1", QXY)


# Factor texts the cover property draws from; x^4-1 is declared irreducible
# but factors, so only a gcd or a Groebner basis sees through it.
COVER_TEXTS = {
    ZZ: ("2", "3", "5", "7"),
    QX: ("x", "x-1", "x+1", "x^2+1", "x^4-1"),
    QXY: ("x", "y", "x-1", "y-1", "x-y", "x^2+y^2-1", "x*y-1", "x^4-1"),
}


@st.composite
def cover_families(draw):
    """A ring and 2-3 opens of 1-2 distinct factors each, multiplicity 1-2."""
    ring = draw(st.sampled_from(list(COVER_TEXTS)))
    opens = []
    for i in range(draw(st.integers(2, 3))):
        texts = draw(st.sets(st.sampled_from(COVER_TEXTS[ring]), min_size=1, max_size=2))
        opens.append(BasicOpen(f"U{i}", tuple(
            make_factor(parse_element(t, ring), ring, draw(st.integers(1, 2)))
            for t in sorted(texts)
        )))
    return ring, opens


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_opens_json_round_trip(data):
    """Opens written with ``format_element`` load back as the same opens; the
    last open repeats the first one's texts, so a text recurs across opens."""
    ring = data.draw(st.sampled_from(list(FACTOR_TEXTS)))
    opens = []
    for i in range(data.draw(st.integers(1, 3))):
        texts = data.draw(st.sets(st.sampled_from(FACTOR_TEXTS[ring]), min_size=1, max_size=3))
        factors = sorted((parse_factor(t, ring) for t in texts), key=lambda f: canonical_key(f.element))
        opens.append(BasicOpen(f"U{i}", tuple(factors)))
    opens.append(BasicOpen("V", opens[0].invert))
    doc = {"opens": [
        {"name": o.name, "invert": [format_element(f.element, ring) for f in o.invert]} for o in opens
    ]}
    assert opens_from_json(json.loads(dump_json(doc)), ring) == tuple(opens)


def generates_unit_ideal(ring, opens):
    """The truth the cover check must respect: over Int the gcd of the
    products, over polynomials sympy's reduced Groebner basis."""
    products = []
    for o in opens:
        product = 1
        for f in o.invert:
            product = product * f.element**f.multiplicity
        products.append(product)
    if ring == ZZ:
        return math.gcd(*products) == 1
    gens = sympy.symbols(ring.variables)
    exprs = [sympy.sympify(format_element(p, ring).replace("^", "**")) for p in products]
    return list(sympy.groebner(exprs, *gens, order="grevlex", domain="QQ").exprs) == [1]


@settings(max_examples=60, deadline=None)
@given(cover_families())
@example(POINT_OUTSIDE)
def test_cover_is_sound(family):
    ring, opens = family
    status = check_cover(ring, opens).status
    if status == "Covers":
        assert generates_unit_ideal(ring, opens)
    elif status == "FailsToCover":
        assert not generates_unit_ideal(ring, opens)


def test_cover_over_a_localized_ring_drops_the_factors_it_inverts():
    z3 = RingDescriptor("Int", inverted=(make_factor(3, ZZ),))

    def opens(*lists):
        return opens_from_json(
            {"opens": [{"name": f"U{i}", "invert": texts} for i, texts in enumerate(lists)]}, z3
        )

    whole = check_cover(z3, opens(["3"]))
    assert whole.status == "Covers"
    assert whole.detail == "open U0 inverts only units, so it is the whole spectrum"
    assert check_cover(z3, opens(["5"], ["3", "7"])).status == "Covers"
    for lists in ((["5"],), (["3", "5"], ["3", "5"]), (["3", "5"], ["5", "7"])):
        status = check_cover(z3, opens(*lists))
        assert status.status == "FailsToCover"
        assert status.common_factor == 5
    assert check_cover(z3, opens(["3", "5"], ["3", "7"])).detail == "unit gcd of the defining products"


def test_cover_permutation_and_duplication_invariance():
    opens = [int_open("U1", 2, 3), int_open("U2", 5), int_open("U3", 7)]
    base = check_cover(ZZ, opens).status
    for perm in itertools.permutations(opens):
        assert check_cover(ZZ, list(perm)).status == base
    assert check_cover(ZZ, opens + [opens[0]]).status == base


def test_cover_monotone_under_added_opens():
    rng = random.Random(61)
    primes = [2, 3, 5, 7, 11]
    for _ in range(40):
        opens = [
            int_open(f"U{i}", *rng.sample(primes, rng.randrange(1, 3)))
            for i in range(rng.randrange(1, 4))
        ]
        before = check_cover(ZZ, opens).status
        opens.append(int_open("X", *rng.sample(primes, rng.randrange(1, 3))))
        after = check_cover(ZZ, opens).status
        if before == "Covers":
            assert after == "Covers"


def test_cover_failure_factor_divides_all_products():
    opens = [int_open("U1", 2, 3), int_open("U2", 2, 5), int_open("U3", 2)]
    status = check_cover(ZZ, opens)
    assert status.status == "FailsToCover"
    p = status.common_factor
    for o in opens:
        product = 1
        for f in o.invert:
            product *= f.element**f.multiplicity
        assert exact_divide(product, p, ZZ) is not None


# --- classify_restrictions ----------------------------------------------------------


def test_classify_hexpoly(hexpoly):
    opens = hexpoly_opens()
    per = dict(classify_restrictions(hexpoly, opens))
    surviving = {
        "U1": ("A3", "B3", "C3", "D3", "E3", "F3"),
        "U2": ("A2", "B2", "C2", "D2", "E2", "F2"),
        "U3": ("A1", "B1", "C1", "D1", "E1", "F1"),
    }
    for name, cycle in surviving.items():
        assert per[name].classification.kind == "DeterminedByCycle"
        assert per[name].classification.cycle == cycle
        assert len(per[name].trivialized_edges) == 12


def test_classify_everything_inverted(triangle):
    opens = [int_open("U", 3, 5, 7)]
    per = dict(classify_restrictions(triangle, opens))
    assert per["U"].classification.kind == "Trivial"


def test_classify_single_edge_is_other(triangle):
    per = dict(classify_restrictions(triangle, [int_open("U", 3, 5)]))
    assert per["U"].classification.kind == "Other"


# --- verify_certificate ----------------------------------------------------------------


def test_certificate_hexpoly_unknown(hexpoly):
    # All three products vanish at x = 505, y^2 = 1 - 495^2: U1 and U2 invert
    # (x-10)^2+y^2-1, U2 and U3 invert (x-1000)^2+y^2-1.  Two variables leave
    # the cover undecided, so the verdict cannot be FREE.
    report = verify_certificate(hexpoly, hexpoly_opens())
    assert report.verdict == "UNKNOWN"
    assert report.cover.status == "Inconclusive"
    assert all(
        outcome.classification.kind == "DeterminedByCycle"
        for _, outcome in report.per_open
    )


def test_certificate_hexpoly_missing_open(hexpoly):
    report = verify_certificate(hexpoly, hexpoly_opens()[:2])
    assert report.cover.status == "FailsToCover"
    assert report.cover.common_factor == parse_element("x-3", QXY)
    assert report.verdict == "UNKNOWN"


def test_certificate_int_triangle_unknown(triangle):
    opens = [int_open("U1", 3, 5), int_open("U2", 3, 7), int_open("U3", 5, 7)]
    report = verify_certificate(triangle, opens)
    assert report.cover.status == "Covers"
    assert all(o.classification.kind == "Other" for _, o in report.per_open)
    assert report.verdict == "UNKNOWN"


def test_certificate_verdict_free_implications(hexpoly):
    report = verify_certificate(hexpoly, hexpoly_opens())
    if report.verdict == "FREE":
        assert report.cover.status == "Covers"
        assert all(
            o.classification.kind in ("Trivial", "DeterminedByCycle")
            for _, o in report.per_open
        )


def test_certificate_not_applicable_for_three_variables():
    r3 = RingDescriptor.rational_polynomials("x", "y", "z")
    from gsplines import FactoredElement, normalize

    lbl = FactoredElement((make_factor(parse_element("x-1", r3), r3),))
    g = normalize(r3, ["u", "v"], [("u", "v", lbl)])
    opens = [BasicOpen("U", (make_factor(parse_element("x-1", r3), r3),))]
    report = verify_certificate(g, opens)
    assert report.verdict == "NOT_APPLICABLE"


def test_free_verdict_matches_computed_rank_over_pid():
    # A certified-free integer fixture: solve_direct must produce a free
    # module of full rank.
    g = int_graph(
        ["a", "b", "c", "d"],
        [("a", "b", 2), ("b", "c", 2), ("c", "d", 2), ("a", "d", 2)],
    )
    opens = [int_open("U1", 3), int_open("U2", 2)]
    report = verify_certificate(g, opens)
    assert report.verdict == "FREE"  # U1 leaves the 2-cycle, U2 trivializes it
    m = solve_direct(g)
    assert m.rank == len(g.vertices)
    assert membership(m, Spline(g, {v: 1 for v in g.vertices})).member
