"""Edge-labeled graphs and their structural operations.

Graphs are simple after normalization: self-loops are dropped (the
congruence they impose is vacuous), parallel edges are merged into a single
edge generating the intersection of the two principal ideals, and edges
whose label is the unit ideal are dropped.  Every operation returns a new
graph; nothing is mutated.  A graph only stores, on first read, the edge
generators its fields determine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import MixedRings, NoSuchEdge, NoSuchVertex, UnknownVertex, UnsupportedRing
from .rings import (
    INT,
    MODINT,
    Factor,
    FactoredElement,
    RingDescriptor,
    RingElement,
    _edge_generator,
    check_element,
    edge_modulus,
    factored_from_residue,
    lcm_factors,
    strip_inverted,
)


@dataclass(frozen=True)
class Edge:
    a: str
    b: str
    label: FactoredElement

    def touches(self, v: str) -> bool:
        return v == self.a or v == self.b


@dataclass(frozen=True)
class EdgeLabeledGraph:
    """A ring, declared vertices and normalized edges.

    ``edge_generators`` is derived from the fields on first read into
    ``_edge_generators``, a field out of ``==``, ``hash`` and ``repr`` that
    starts as ``None``; a graph built from another derives its own.  Unlike
    a ``cached_property``, storing it never materializes the instance
    ``__dict__``, which would slow every later attribute read.  The value is
    a pure function of the fields, so two threads that compute it at once
    store equal tuples and the graph stays immutable in effect.
    """

    ring: RingDescriptor
    vertices: Tuple[str, ...]
    edges: Tuple[Edge, ...]
    _edge_generators: Optional[Tuple[RingElement, ...]] = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def edge_generators(self) -> Tuple[RingElement, ...]:
        """Each edge's ideal generator in the ring the solvers compute in
        (``rings._edge_generator``), in ``edges`` order."""
        gens = self._edge_generators
        if gens is None:
            gens = tuple(_edge_generator(e.label, self.ring) for e in self.edges)
            object.__setattr__(self, "_edge_generators", gens)
        return gens

    def index(self, v: str) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise NoSuchVertex(f"vertex {v!r} is not in the graph") from None

    def edge_between(self, u: str, v: str) -> Optional[Edge]:
        for e in self.edges:
            if {e.a, e.b} == {u, v}:
                return e
        return None

    def adjacency(self) -> Dict[str, List[str]]:
        adj: Dict[str, List[str]] = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.a].append(e.b)
            adj[e.b].append(e.a)
        return adj


def _check_label(label: FactoredElement, ring: RingDescriptor) -> None:
    base = ring.base()
    for f in label.factors:
        check_element(f.element, base)


def _intersect_labels(
    l1: FactoredElement, l2: FactoredElement, ring: RingDescriptor
) -> FactoredElement:
    """Generator of the intersection of two principal ideals.

    The zero ideal absorbs (it forces equality, which implies every other
    congruence).  Otherwise the intersection is the factorwise
    max-multiplicity product, i.e. the least common multiple.
    """
    if l1.is_zero or l2.is_zero:
        return FactoredElement.zero()
    if ring.kind == MODINT:
        return factored_from_residue(
            math.lcm(edge_modulus(l1, ring), edge_modulus(l2, ring)), ring
        )
    return FactoredElement(lcm_factors(l1.factors + l2.factors))


def normalize(
    ring: RingDescriptor,
    vertices: Sequence[str],
    edges: Iterable[Tuple[str, str, FactoredElement]],
) -> EdgeLabeledGraph:
    """Build a normalized graph from a raw description.

    Drops self-loops, merges parallel edges, strips the factors ``ring``
    inverts (``rings.strip_inverted``) and then drops unit labels, orients
    every edge from the earlier-declared endpoint, and sorts edges by
    endpoint indices so the result is deterministic and normalization is
    idempotent.
    """
    vertices = tuple(vertices)
    if len(set(vertices)) != len(vertices):
        raise UnknownVertex("duplicate vertex names in the declaration")
    index = {v: i for i, v in enumerate(vertices)}
    merged: Dict[Tuple[int, int], FactoredElement] = {}
    for a, b, label in edges:
        if a not in index:
            raise UnknownVertex(f"edge endpoint {a!r} is not a declared vertex")
        if b not in index:
            raise UnknownVertex(f"edge endpoint {b!r} is not a declared vertex")
        if not isinstance(label, FactoredElement):
            raise MixedRings(f"edge label {label!r} is not a factored ideal generator")
        _check_label(label, ring)
        if a == b:
            continue
        key = (index[a], index[b]) if index[a] < index[b] else (index[b], index[a])
        if key in merged:
            merged[key] = _intersect_labels(merged[key], label, ring)
        else:
            merged[key] = label
    out = []
    for (ia, ib), label in sorted(merged.items()):
        label = strip_inverted(label, ring)
        if label.is_unit_ideal():
            continue
        out.append(Edge(vertices[ia], vertices[ib], label))
    return EdgeLabeledGraph(ring, vertices, tuple(out))


Classes = Tuple[Tuple[str, ...], ...]


def _coarsen(
    classes: Classes,
    class_of: Dict[str, int],
    position: Dict[str, int],
    pairs: Iterable[Tuple[str, str]],
) -> Classes:
    """Merge the classes that ``pairs`` join.

    ``classes`` are ordered by first vertex with members in declaration
    order; ``class_of`` maps a vertex to its class's index and ``position``
    to its declaration index.  The union-find runs over class indices and
    visits only the classes a pair touches: each class joins the earlier
    one, so a merged class keeps the slot of its first class, members
    re-sorted by declaration index.  The other slots it absorbed are
    deleted, and every class no pair joined is the same tuple as before.
    """
    parent: Dict[int, int] = {}  # a joined class -> an earlier class; roots are absent
    for a, b in pairs:
        i, j = class_of[a], class_of[b]
        while i in parent:  # path halving: each step skips to the grandparent
            up = parent[i]
            up = parent[i] = parent.get(up, up)
            i = up
        while j in parent:
            up = parent[j]
            up = parent[j] = parent.get(up, up)
            j = up
        if i < j:
            parent[j] = i
        elif j < i:
            parent[i] = j
    if not parent:
        return classes
    absorbed = sorted(parent)  # a parent comes before its children
    groups: Dict[int, List[int]] = {}
    for k in absorbed:
        up = parent[k]
        root = parent[k] = parent.get(up, up)
        groups.setdefault(root, [root]).append(k)
    out = list(classes)
    for root, merged in groups.items():
        members: List[str] = []
        for k in merged:
            members += classes[k]
        members.sort(key=position.__getitem__)
        out[root] = tuple(members)
    kept: List[Tuple[str, ...]] = []
    start = 0
    for k in absorbed:
        kept += out[start:k]
        start = k + 1
    kept += out[start:]
    return tuple(kept)


def _partition(vertices: Sequence[str], pairs: Iterable[Tuple[str, str]]) -> Classes:
    """Connected classes of the relation generated by ``pairs``; classes are
    ordered by first vertex, members in declaration order.  The singleton
    classes coarsened by ``pairs``."""
    position = {v: i for i, v in enumerate(vertices)}
    return _coarsen(tuple((v,) for v in vertices), position, position, pairs)


def connected_components(g: EdgeLabeledGraph) -> List[EdgeLabeledGraph]:
    """Split into components, ordered by first vertex; vertices and edges
    keep declaration order."""
    classes = _partition(g.vertices, [(e.a, e.b) for e in g.edges])
    which = {v: i for i, c in enumerate(classes) for v in c}
    edges: List[List[Edge]] = [[] for _ in classes]
    for e in g.edges:
        edges[which[e.a]].append(e)
    return [EdgeLabeledGraph(g.ring, c, tuple(es)) for c, es in zip(classes, edges)]


# ---------------------------------------------------------------------------
# restriction along a localization


@dataclass(frozen=True)
class Classification:
    """How the nontrivial edges of a restricted graph sit in the graph."""

    kind: str  # "Trivial" | "DeterminedByCycle" | "Other"
    cycle: Tuple[str, ...] = ()

    def __str__(self) -> str:
        if self.kind == "DeterminedByCycle":
            return f"DeterminedByCycle({', '.join(self.cycle)})"
        return self.kind


@dataclass(frozen=True)
class RestrictionOutcome:
    graph: EdgeLabeledGraph
    trivialized_edges: Tuple[Edge, ...]
    classification: Classification


def classify(g: EdgeLabeledGraph) -> Classification:
    """Trivial when no edges remain; DeterminedByCycle when the remaining
    edges form exactly one cycle on >= 3 vertices; Other otherwise."""
    if not g.edges:
        return Classification("Trivial")
    degree = {v: 0 for v in g.vertices}
    for e in g.edges:
        degree[e.a] += 1
        degree[e.b] += 1
    touched = [v for v in g.vertices if degree[v] > 0]
    if any(degree[v] != 2 for v in touched):
        return Classification("Other")
    if len(touched) < 3 or len(g.edges) != len(touched):
        return Classification("Other")
    adj = g.adjacency()
    start = touched[0]
    order = {v: i for i, v in enumerate(g.vertices)}
    walk = [start]
    prev = None
    cur = start
    while True:
        nxt = [w for w in adj[cur] if w != prev]
        if len(nxt) == 2:  # first step from the start vertex
            nxt = [min(nxt, key=lambda w: order[w])]
        if not nxt:
            return Classification("Other")
        prev, cur = cur, nxt[0]
        if cur == start:
            break
        walk.append(cur)
    if len(walk) != len(touched):
        return Classification("Other")
    return Classification("DeterminedByCycle", tuple(walk))


def restrict(g: EdgeLabeledGraph, invert: Iterable[Factor]) -> RestrictionOutcome:
    """Restrict the graph along the localization inverting ``invert``.

    The result lives over the localized ring; inverted factors are removed
    from every label (``rings.strip_inverted``), and edges whose label
    became the unit ideal are deleted and reported.  Zero labels survive
    every localization.
    """
    new_ring = g.ring.localize(invert)
    kept: List[Edge] = []
    trivialized: List[Edge] = []
    for e in g.edges:
        new_label = strip_inverted(e.label, new_ring)
        if new_label.is_unit_ideal():
            trivialized.append(e)
        else:
            kept.append(Edge(e.a, e.b, new_label))
    graph = EdgeLabeledGraph(new_ring, g.vertices, tuple(kept))
    return RestrictionOutcome(graph, tuple(trivialized), classify(graph))


# ---------------------------------------------------------------------------
# deletion and contraction


def delete_edge(g: EdgeLabeledGraph, u: str, v: str) -> EdgeLabeledGraph:
    edge = g.edge_between(u, v)
    if edge is None:
        raise NoSuchEdge(f"no edge between {u!r} and {v!r}")
    return EdgeLabeledGraph(g.ring, g.vertices, tuple(e for e in g.edges if e is not edge))


def delete_vertex(g: EdgeLabeledGraph, u: str) -> EdgeLabeledGraph:
    if u not in g.vertices:
        raise NoSuchVertex(f"vertex {u!r} is not in the graph")
    return EdgeLabeledGraph(
        g.ring,
        tuple(v for v in g.vertices if v != u),
        tuple(e for e in g.edges if not e.touches(u)),
    )


def contracted_vertex(g: EdgeLabeledGraph, u: str, v: str) -> str:
    """The name ``contract_edge(g, u, v)`` gives the merged vertex: ``u~v``,
    primed until no vertex of ``g`` has it."""
    merged = f"{u}~{v}"
    while merged in g.vertices:
        merged += "'"
    return merged


def contract_edge(g: EdgeLabeledGraph, u: str, v: str) -> EdgeLabeledGraph:
    """Delete the edge, then identify its endpoints as ``contracted_vertex``.

    Edges formerly incident to either endpoint re-attach to the merged
    vertex; self-loops produced by the identification are dropped and new
    parallel pairs are merged by ideal intersection.
    """
    edge = g.edge_between(u, v)
    if edge is None:
        raise NoSuchEdge(f"no edge between {u!r} and {v!r}")
    merged = contracted_vertex(g, u, v)
    iu, iv = g.index(u), g.index(v)
    keep_at = min(iu, iv)
    vertices = tuple(
        merged if i == keep_at else w
        for i, w in enumerate(g.vertices)
        if w not in (u, v) or i == keep_at
    )

    def rename(w: str) -> str:
        return merged if w in (u, v) else w

    edges = [
        (rename(e.a), rename(e.b), e.label) for e in g.edges if e is not edge
    ]
    return normalize(g.ring, vertices, edges)


# ---------------------------------------------------------------------------
# reduction to a residue ring


def reduce_mod(g: EdgeLabeledGraph, n: int) -> EdgeLabeledGraph:
    """Reduce an integer graph modulo ``n``.

    Each label's expanded generator maps to its residue; generators that
    become units give vacuous constraints and the normalization pass drops
    those edges.
    """
    if g.ring.kind != INT:
        raise UnsupportedRing("only integer graphs can be reduced modulo n")
    if g.ring.inverted:
        raise UnsupportedRing("localized graphs cannot be reduced modulo n")
    ring = RingDescriptor.residues(n)
    edges = []
    for e in g.edges:
        if e.label.is_zero:
            label = FactoredElement.zero()
        else:
            label = factored_from_residue(e.label.expand(g.ring), ring)
        edges.append((e.a, e.b, label))
    return normalize(ring, g.vertices, edges)
