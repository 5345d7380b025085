"""Seeded input generator for the benchmark workloads.

Every workload is a pool of *documents*: a graph JSON text in the format
``gsplines.formats`` reads, an optional opens JSON text, and the per-case
parameters a CLI invocation would pass (modulus, ``--invert`` list, edge to
contract, a labeling to test for membership) together with whatever ground
truth is known by construction.  The same ``(workload, seed)`` always gives
byte-identical documents.  Nothing here imports ``gsplines``: generation is
pure text, so it cannot be sped up or slowed down by the program under test.

Pools are built round-robin over a fixed list of *slots* (families and
sizes); only the labels inside a slot are random.  A slow or failing draw is
never re-drawn or resized.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Optional

WORKLOADS = ("int-basis", "poly-basis", "verify-mod", "certify-spectrum")

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "fixtures")

PRIMES_50 = [p for p in range(2, 50) if all(p % d for d in range(2, p))]

# Number of rounds over each workload's slot list; a pool holds
# rounds * len(slots) documents, about as many cases as one 20 s run makes,
# so that a run averages over many independent draws.
ROUNDS = {"int-basis": 20, "poly-basis": 4, "verify-mod": 12, "certify-spectrum": 14}


def dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _edge(u: str, v: str, factors) -> dict:
    return {"ends": [u, v], "label": {"factors": [[t, 1] for t in factors]}}


def _graph_doc(ring: dict, vertices: List[str], edges: List[dict]) -> str:
    return dump({"ring": ring, "vertices": vertices, "edges": edges})


def _shape(kind: str, n: int):
    if kind == "K":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [(i, (i + 1) % n) for i in range(n)]


# ---------------------------------------------------------------------------
# int-basis / poly-basis


def _vertex_labels(pairs, labels):
    at: Dict[int, list] = {}
    for (i, j), lab in zip(pairs, labels):
        at.setdefault(i, []).append(lab)
        at.setdefault(j, []).append(lab)
    return at


def _int_basis_doc(rng: random.Random, kind: str, n: int, idx: int) -> dict:
    vs = [f"v{i}" for i in range(n)]
    pairs = _shape(kind, n)
    labels = [(rng.choice(PRIMES_50), rng.choice(PRIMES_50)) for _ in pairs]
    edges = [_edge(vs[i], vs[j], [str(p), str(q)]) for (i, j), (p, q) in zip(pairs, labels)]
    # Half the labelings are splines by construction: a constant plus a
    # multiple of the product of every label at one vertex.  The other half
    # are random values, almost never splines.
    member = idx % 2 == 0
    if member:
        c = rng.randrange(-50, 51)
        v = rng.randrange(n)
        k = rng.randrange(1, 10)
        bump = k
        for p, q in _vertex_labels(pairs, labels)[v]:
            bump *= p * q
        values = {vs[i]: str(c + (bump if i == v else 0)) for i in range(n)}
    else:
        values = {x: str(rng.randrange(-1000, 1001)) for x in vs}
    return {
        "id": f"int-basis/{idx}/{kind}{n}",
        "graph": _graph_doc({"kind": "Int"}, vs, edges),
        "labeling": values,
        "member": member,
    }


def _poly_basis_doc(rng: random.Random, kind: str, n: int, idx: int) -> dict:
    vs = [f"v{i}" for i in range(n)]
    pairs = _shape(kind, n)
    # Distinct roots, the integers nearest 0, in random order along the edges.
    roots = [r - len(pairs) // 2 for r in range(len(pairs))]
    rng.shuffle(roots)
    edges = [_edge(vs[i], vs[j], [_linear("x", r)]) for (i, j), r in zip(pairs, roots)]
    member = idx % 2 == 0
    if member:
        c = rng.randrange(-5, 6)
        v = rng.randrange(n)
        factors = [f"({_linear('x', r)})" for r in _vertex_labels(pairs, roots)[v]]
        bump = "*".join(factors)
        values = {vs[i]: (f"{c}+{bump}" if i == v else str(c)) for i in range(n)}
    else:
        values = {x: str(rng.randrange(-20, 21)) for x in vs}
    return {
        "id": f"poly-basis/{idx}/{kind}{n}",
        "graph": _graph_doc({"kind": "PolyQ", "variables": ["x"]}, vs, edges),
        "labeling": values,
        "member": member,
    }


def _linear(var: str, r: int) -> str:
    if r == 0:
        return var
    return f"{var}-{r}" if r > 0 else f"{var}+{-r}"


# ---------------------------------------------------------------------------
# verify-mod


def _verify_doc(rng: random.Random, nv: int, mod: int, idx: int) -> dict:
    vs = [f"v{i}" for i in range(nv)]
    pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
    # A spanning path keeps the graph connected; every other pair is an
    # edge with probability one half.
    chosen = [(i, i + 1) for i in range(nv - 1)]
    chosen += [p for p in pairs if p not in chosen and rng.random() < 0.5]
    edges = []
    for i, j in sorted(chosen):
        k = rng.randrange(1, 3)
        edges.append(_edge(vs[i], vs[j], [str(rng.choice(PRIMES_50[:8])) for _ in range(k)]))
    return {
        "id": f"verify-mod/{idx}/V{nv}-mod{mod}",
        "graph": _graph_doc({"kind": "Int"}, vs, edges),
        "mod": mod,
    }


# ---------------------------------------------------------------------------
# certify-spectrum
#
# A hexagon chain has ``h`` disjoint hexagons; every edge of hexagon t is
# labeled ``line_t * cofactor_{t,i}``.  The opens follow the fixture's
# pattern: open U_t inverts the lines and cofactors of every hexagon but one,
# so restricting along it leaves exactly one hexagon, a cycle.
#
# Ground truth of the cover status ("Covers" / "NotCovers"):
# * Int and Q[x]: all declared factors are pairwise non-associate
#   irreducibles, so the opens cover exactly when no factor lies in every
#   open.  The generator knows that directly.
# * Q[x,y], planted: every open inverts a factor vanishing at one rational
#   point, so the opens do not cover.
# * Q[x,y], coprime pair: two opens invert only ``x-a`` and ``x-b``, so the
#   opens cover.
# * Q[x,y], small random opens: undecided here; the truth comes from a
#   Groebner basis computed outside the timed run (``groebner_oracle.py``).


def _hexagon_names(h: int):
    return [[f"{c}{t + 1}" for c in "ABCDEF"] for t in range(h)]


def _chain_graph(ring: dict, lines: List[str], cofactors: List[List[str]]):
    names = _hexagon_names(len(lines))
    vertices = [v for hv in names for v in hv]
    edges = []
    for t, hv in enumerate(names):
        for i in range(6):
            edges.append(_edge(hv[i], hv[(i + 1) % 6], [lines[t], cofactors[t][i]]))
    return vertices, edges


def _fixture_pattern_opens(lines, cofactors):
    """U_t inverts the lines and cofactors of every hexagon except t's."""
    h = len(lines)
    opens = []
    for skip in reversed(range(h)):
        invert = []
        for t in range(h):
            if t != skip:
                invert.append(lines[t])
        for t in range(h):
            if t != skip:
                invert.extend(cofactors[t])
        opens.append({"name": f"U{len(opens) + 1}", "invert": _dedupe(invert)})
    return opens


def _dedupe(items):
    out = []
    for x in items:
        if x not in out:
            out.append(x)
    return out


def _pid_truth(opens) -> str:
    common = set(opens[0]["invert"])
    for o in opens[1:]:
        common &= set(o["invert"])
    return "NotCovers" if common else "Covers"


def _certify_case(idx, family, ring, vertices, edges, opens, truth, rng, polys=None):
    e = rng.choice(edges)["ends"]
    return {
        "id": f"certify-spectrum/{idx}/{family}",
        "graph": _graph_doc(ring, vertices, edges),
        "opens": dump({"opens": opens}),
        "invert": list(opens[0]["invert"]),
        "contract": list(e),
        "truth": truth,
        "groebner": polys,
    }


def _hexpoly_fixture(idx, rng):
    with open(os.path.join(FIXTURES, "hexpoly.json"), "r", encoding="utf-8") as fh:
        graph = json.load(fh)
    with open(os.path.join(FIXTURES, "hexpoly_opens.json"), "r", encoding="utf-8") as fh:
        opens = json.load(fh)["opens"]
    # U1 and U2 both invert (x-10)^2+y^2-1 and U3 inverts (x-1000)^2+y^2-1;
    # the two circles meet at x = 505, y^2 = 1 - 495^2, where every open's
    # product vanishes.
    return _certify_case(
        idx, "hexpoly-fixture", graph["ring"], graph["vertices"], graph["edges"],
        opens, "NotCovers", rng,
    )


def _hexchain_fixture(idx, rng):
    with open(os.path.join(FIXTURES, "hexchain.json"), "r", encoding="utf-8") as fh:
        graph = json.load(fh)
    # Lines 3, 5, 7; the composite cofactors 2, 4, 8, 11, 13 bring the
    # primes 2, 11 and 13.  Each open drops one line and a random subset of
    # the cofactor primes.
    cof = ["2", "11", "13"]
    opens = []
    for name, lines in (("U1", ["3", "5"]), ("U2", ["3", "7"]), ("U3", ["5", "7"])):
        extra = [p for p in cof if rng.random() < 0.6]
        opens.append({"name": name, "invert": lines + extra})
    return _certify_case(
        idx, "hexchain-fixture", graph["ring"], graph["vertices"], graph["edges"],
        opens, _pid_truth(opens), rng,
    )


def _int_chain(idx, rng):
    h = rng.choice((2, 3))
    pool = list(PRIMES_50)
    rng.shuffle(pool)
    lines = [str(p) for p in pool[:h]]
    rest = pool[h:h + 8]
    cofactors = [[str(rng.choice(rest)) for _ in range(6)] for _ in range(h)]
    vertices, edges = _chain_graph({"kind": "Int"}, lines, cofactors)
    opens = _fixture_pattern_opens(lines, cofactors)
    return _certify_case(idx, f"int-chain{h}", {"kind": "Int"}, vertices, edges, opens, _pid_truth(opens), rng)


def _qx_factor(rng) -> str:
    if rng.random() < 0.7:
        return _linear("x", rng.randrange(-30, 31))
    return f"x^2+{rng.randrange(1, 30)}"


def _qx_chain(idx, rng):
    h = rng.choice((2, 3))
    ring = {"kind": "PolyQ", "variables": ["x"]}
    roots = rng.sample(range(-40, 41), h)
    lines = [_linear("x", r) for r in roots]
    cofactors = []
    for _ in range(h):
        row = []
        for _ in range(6):
            f = _qx_factor(rng)
            while f in lines:
                f = _qx_factor(rng)
            row.append(f)
        cofactors.append(row)
    vertices, edges = _chain_graph(ring, lines, cofactors)
    opens = _fixture_pattern_opens(lines, cofactors)
    return _certify_case(idx, f"qx-chain{h}", ring, vertices, edges, opens, _pid_truth(opens), rng)


def _circle(c: int, d: int, r2: int) -> str:
    def shifted(var, k):
        return var if k == 0 else (f"({var}-{k})" if k > 0 else f"({var}+{-k})")

    return f"{shifted('x', c)}^2+{shifted('y', d)}^2-{r2}"


def _random_circle(rng) -> str:
    return _circle(rng.randrange(-30, 31), rng.randrange(-30, 31), rng.randrange(1, 50))


def _circle_through(rng, a: int, b: int) -> str:
    while True:
        c, d = rng.randrange(-20, 21), rng.randrange(-20, 21)
        r2 = (a - c) ** 2 + (b - d) ** 2
        if r2:
            return _circle(c, d, r2)


def _qxy_planted(idx, rng):
    """Fixture-pattern chain whose first cofactor circles all pass through
    one rational point (a, b): every open vanishes there."""
    h = 3
    ring = {"kind": "PolyQ", "variables": ["x", "y"]}
    a, b = rng.randrange(-10, 11), rng.randrange(-10, 11)
    lines = [_linear("x", r) for r in rng.sample(range(-40, 41), h)]
    cofactors = [
        [_circle_through(rng, a, b)] + [_random_circle(rng) for _ in range(5)]
        for _ in range(h)
    ]
    vertices, edges = _chain_graph(ring, lines, cofactors)
    opens = _fixture_pattern_opens(lines, cofactors)
    return _certify_case(idx, "qxy-planted", ring, vertices, edges, opens, "NotCovers", rng)


def _qxy_coprime_pair(idx, rng):
    """Fixture-pattern chain plus two opens inverting only ``x-a`` and
    ``x-b``: their products alone generate the unit ideal."""
    h = 2
    ring = {"kind": "PolyQ", "variables": ["x", "y"]}
    roots = rng.sample(range(-40, 41), h + 2)
    lines = [_linear("x", r) for r in roots[:h]]
    cofactors = [[_random_circle(rng) for _ in range(6)] for _ in range(h)]
    vertices, edges = _chain_graph(ring, lines, cofactors)
    opens = _fixture_pattern_opens(lines, cofactors)
    opens.append({"name": f"U{len(opens) + 1}", "invert": [_linear("x", roots[h])]})
    opens.append({"name": f"U{len(opens) + 1}", "invert": [_linear("x", roots[h + 1])]})
    return _certify_case(idx, "qxy-coprime-pair", ring, vertices, edges, opens, "Covers", rng)


def _qxy_random(idx, rng):
    """Two hexagons; two or three small opens drawn from the chain's own
    factors.  The cover status is left to the Groebner oracle.

    ``rng`` here is the fixed panel stream (see ``generate``), not the
    seed's."""
    h = 2
    ring = {"kind": "PolyQ", "variables": ["x", "y"]}
    lines = [_linear("x", r) for r in rng.sample(range(-10, 11), h)]
    cofactors = []
    for _ in range(h):
        row = []
        for _ in range(6):
            if rng.random() < 0.3:
                row.append(_linear("y", rng.randrange(-10, 11)))
            else:
                row.append(_circle(rng.randrange(-5, 6), rng.randrange(-5, 6), rng.randrange(1, 10)))
        cofactors.append(row)
    vertices, edges = _chain_graph(ring, lines, cofactors)
    factors = _dedupe(lines + [f for row in cofactors for f in row])
    opens = []
    for k in range(rng.choice((2, 3))):
        opens.append({"name": f"U{k + 1}", "invert": rng.sample(factors, rng.choice((1, 2)))})
    polys = ["*".join(f"({f})" for f in o["invert"]) for o in opens]
    return _certify_case(idx, "qxy-random", ring, vertices, edges, opens, None, rng, polys)


# The random Q[x,y] family fills four of the ten slots, ranks three to six
# by time, so that the median case falls inside its cluster of times rather
# than on the gap to the next family.
CERTIFY_SLOTS = (
    _hexpoly_fixture,
    _hexchain_fixture,
    _int_chain,
    _qx_chain,
    _qxy_planted,
    _qxy_coprime_pair,
    _qxy_random,
    _qxy_random,
    _qxy_random,
    _qxy_random,
)

# Every cycle length in the range, so that case times form a continuum and
# the percentiles do not sit on a gap between two sizes.  The direct solver's
# time is heavy-tailed past K8 and C36 (K9: median 18 ms, up to 2.3 s;
# C44: 3 of 100 draws over 1 s, one over 3 s), and one such draw decides a
# whole run, so the sizes stop there.
INT_SLOTS = [("K", n) for n in (6, 7, 8)] + [("C", n) for n in range(24, 37)]
# Q[x] K6 takes about 1.7 s per case and K5 about 0.4 s; K6 is left out and
# K5 drawn once per four draws of every other size, so that a run holds the
# 100 cases the 90th percentile needs.  C6 is drawn twice as often as its
# neighbours so that the median falls inside its cluster of times, as the
# 90th percentile falls inside C8's, rather than on a gap between sizes.
POLY_SLOTS = [("K", 3), ("C", 4), ("C", 5), ("C", 6), ("C", 6), ("K", 4), ("C", 7), ("C", 8)]
POLY_SLOTS = POLY_SLOTS * 4 + [("K", 5)]
# (vertices, modulus): n^|V| stays at or below 30^3 = 27000 labelings.
# The two sizes whose times sit at the median, 4 vertices mod 8 and 3 mod
# 18, are drawn three times per round, so that the median falls inside
# their cluster rather than between sparser sizes.
VERIFY_SLOTS = [(3, m) for m in (6, 10, 12, 15, 18, 18, 18, 21, 24, 30)] + [(4, m) for m in (6, 8, 8, 8, 10, 12)]


def round_length(workload: str) -> int:
    """Documents per round: one draw of every slot of ``workload``."""
    slots = {"int-basis": INT_SLOTS, "poly-basis": POLY_SLOTS,
             "verify-mod": VERIFY_SLOTS, "certify-spectrum": CERTIFY_SLOTS}
    return len(slots[workload])


def generate(workload: str, seed: int, rounds: Optional[int] = None) -> List[dict]:
    """The document pool of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    # The random Q[x,y] family is a fixed panel, the same for every seed:
    # how many of its draws the cover heuristic misreports varies from draw
    # to draw, and a fixed panel keeps the failed count of a run the same
    # for every seed, as it is for every other family.
    panel = random.Random(f"{workload}:panel")
    rounds = ROUNDS[workload] if rounds is None else rounds
    docs = []
    for _ in range(rounds):
        if workload == "int-basis":
            for kind, n in INT_SLOTS:
                docs.append(_int_basis_doc(rng, kind, n, len(docs)))
        elif workload == "poly-basis":
            for kind, n in POLY_SLOTS:
                docs.append(_poly_basis_doc(rng, kind, n, len(docs)))
        elif workload == "verify-mod":
            for nv, mod in VERIFY_SLOTS:
                docs.append(_verify_doc(rng, nv, mod, len(docs)))
        else:
            for make in CERTIFY_SLOTS:
                docs.append(make(len(docs), panel if make is _qxy_random else rng))
    return docs


def fingerprint(docs: List[dict]) -> str:
    """Byte-stable digest of a pool, for the determinism self-test."""
    import hashlib

    return hashlib.sha256(dump(docs).encode("utf-8")).hexdigest()
