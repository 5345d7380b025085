import os

import pytest
from hypothesis import strategies as st

from gsplines import (
    BasicOpen,
    FactoredElement,
    RingDescriptor,
    integer_factors,
    make_factor,
    normalize,
    parse_element,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


ZZ = RingDescriptor.integers()
QXY = RingDescriptor.rational_polynomials("x", "y")
QX = RingDescriptor.rational_polynomials("x")


def int_label(n):
    """Label generated by n, split into prime factors; 0 means the zero ideal."""
    if n == 0:
        return FactoredElement.zero()
    return FactoredElement(integer_factors(n, ZZ))


def int_graph(vertices, edges):
    """edges: list of (u, v, n) with integer label generators."""
    return normalize(ZZ, vertices, [(u, v, int_label(n)) for u, v, n in edges])


@pytest.fixture
def triangle():
    return int_graph(["u", "v", "w"], [("u", "v", 3), ("v", "w", 5), ("u", "w", 7)])


@pytest.fixture
def path_graph():
    return int_graph(["u", "v", "w"], [("u", "v", 3), ("v", "w", 5)])


SQUARE_EDGES = [("u", "v", 3), ("u", "w", 5), ("u", "x", 7), ("v", "w", 2), ("w", "x", 11)]


def unrelated_pairs():
    """``(before, after)`` pairs whose vertex sets suggest one operation
    that does not produce ``after``: deleting ``x`` and also ``u-w``; an
    edgeless graph on the contracted vertex set; deleting ``u-x`` while
    relabeling ``u-v`` from 3 to 2."""
    square = int_graph(["u", "v", "w", "x"], SQUARE_EDGES)
    relabeled = [(a, b, 2 if (a, b) == ("u", "v") else n) for a, b, n in SQUARE_EDGES]
    return [
        (square, int_graph(["u", "v", "w"], [("u", "v", 3), ("v", "w", 2)])),
        (square, int_graph(["u~v", "w", "x"], [])),
        (square, int_graph(["u", "v", "w", "x"], [e for e in relabeled if e[:2] != ("u", "x")])),
    ]


HEX_COFACTORS = (1, 2, 4, 8, 11, 13)


def hexchain_graph():
    """Three disjoint hexagons over the integers; hexagon i's labels share
    the prime (3, 5, 7)[i] with cofactors 1,2,4,8,11,13 around the ring."""
    vertices, edges = [], []
    for tag, p in (("1", 3), ("2", 5), ("3", 7)):
        hv = [f"{c}{tag}" for c in "ABCDEF"]
        vertices += hv
        for i, k in enumerate(HEX_COFACTORS):
            edges.append((hv[i], hv[(i + 1) % 6], p * k))
    return int_graph(vertices, edges)


@pytest.fixture
def hexchain():
    return hexchain_graph()


HEXPOLY_LINES = {1: "x-3", 2: "x-5", 3: "x-7"}
HEXPOLY_CENTERS = {1: 10, 2: 100, 3: 1000}


def hexpoly_graph():
    """The two-variable analogue: line factor times a circle cofactor."""
    vertices, edges = [], []
    for tag in (1, 2, 3):
        hv = [f"{c}{tag}" for c in "ABCDEF"]
        vertices += hv
        line = parse_element(HEXPOLY_LINES[tag], QXY)
        for i in range(6):
            circle = parse_element(
                f"(x-{HEXPOLY_CENTERS[tag] * (i + 1)})^2+y^2-1", QXY
            )
            label = FactoredElement(
                (make_factor(line, QXY), make_factor(circle, QXY))
            )
            edges.append((hv[i], hv[(i + 1) % 6], label))
    return normalize(QXY, vertices, edges)


def hexpoly_opens():
    def mk(name, line_tags, circle_tags):
        invert = [make_factor(parse_element(HEXPOLY_LINES[t], QXY), QXY) for t in line_tags]
        for t in circle_tags:
            for i in range(6):
                circle = parse_element(
                    f"(x-{HEXPOLY_CENTERS[t] * (i + 1)})^2+y^2-1", QXY
                )
                invert.append(make_factor(circle, QXY))
        return BasicOpen(name, tuple(invert))

    return (mk("U1", (1, 2), (1, 2)), mk("U2", (1, 3), (1, 3)), mk("U3", (2, 3), (2, 3)))


@pytest.fixture
def hexpoly():
    return hexpoly_graph()


# Factor texts per ring; several are non-monic or negative, so the factor
# element is an associate built by arithmetic, not the parsed object.
FACTOR_TEXTS = {
    ZZ: ("2", "3", "5", "-7", "11"),
    QX: ("x", "x-1", "2*x+4", "x^2+1", "-x^2+2", "3*x^3-6"),
    QXY: ("x", "y", "x-y", "2*x+2*y-2", "x^2+y^2-1", "(x-10)^2+y^2-1", "-x*y+1"),
}


def parse_factor(text, ring, multiplicity=1):
    """A fresh normalized factor object for ``text``."""
    return make_factor(parse_element(text, ring), ring, multiplicity)


@st.composite
def factored_graphs(draw, max_vertices=5, shuffled=False):
    """A normalized graph over Int, Q[x] or Q[x,y] on 1 to ``max_vertices``
    vertices whose labels are zero (about one in six) or products of
    factors drawn, with multiplicities 1-2, from ``FACTOR_TEXTS``; every
    factor is parsed afresh, so equal factors are distinct objects.  The
    vertices are ``v0``, ``v1``, ... in that order, or with ``shuffled`` the
    same names declared in a drawn order, so declaration order need not be
    name order (from ten vertices on, ``v10`` sorts before ``v2``)."""
    ring = draw(st.sampled_from(list(FACTOR_TEXTS)))
    texts = FACTOR_TEXTS[ring]
    vertices = [f"v{i}" for i in range(draw(st.integers(1, max_vertices)))]
    if shuffled:
        vertices = draw(st.permutations(vertices))
    edges = []
    for _ in range(draw(st.integers(0, 2 * len(vertices)))):
        a = draw(st.sampled_from(vertices))
        b = draw(st.sampled_from(vertices))
        if draw(st.integers(0, 5)) == 0:
            label = FactoredElement.zero()
        else:
            chosen = draw(st.sets(st.sampled_from(texts), min_size=1, max_size=3))
            label = FactoredElement(tuple(
                parse_factor(t, ring, draw(st.integers(1, 2))) for t in sorted(chosen)
            ))
        edges.append((a, b, label))
    return normalize(ring, vertices, edges)
