"""Combinatorial reports on the glued spectrum of a spline ring.

Each vertex contributes one copy of the base spectrum; an edge glues two
copies along the vanishing locus of its label.  At the level of irreducible
factors this produces, for every factor, a partition of the vertices (the
fiber over that factor), and a gluing multigraph with one link per
(edge, factor) incidence.  The hole count is the cycle rank of that
multigraph; it is an artifact-level first Betti number of the gluing
structure, not a claim about scheme topology.  Every report field derives
from the gluing links alone, in one builder.

Zero-ideal labels identify their endpoints everywhere: they glue in every
fiber and contribute a single generic link.  Residue rings are refused
(``UnsupportedRing``): their labels' factors are not primes of the ring.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from .errors import UnrelatedGraphs, UnsupportedRing
from .graphs import EdgeLabeledGraph, _partition, contract_edge, contracted_vertex
from .graphs import delete_edge, delete_vertex, restrict
from .rings import (
    MODINT,
    Factor,
    RingDescriptor,
    RingElement,
    canonical_key,
    format_element,
    format_factored,
    normalized_associate,
)

GENERIC = "generic"

# A gluing link: the two endpoint names plus the factor element, or the
# GENERIC marker for a zero-ideal identification.
Link = Tuple[str, str, Union[RingElement, str]]


@dataclass(frozen=True)
class SpectrumReport:
    vertices: Tuple[str, ...]
    ring: RingDescriptor
    relevant_primes: Tuple[RingElement, ...]
    fibers: Dict[RingElement, Tuple[Tuple[str, ...], ...]]
    links: Tuple[Link, ...]
    fully_glued_pairs: Tuple[Tuple[str, str], ...]
    hole_count: int
    components: int
    generic_points: int


@dataclass(frozen=True)
class SpectrumDiff:
    before: SpectrumReport
    after: SpectrumReport
    narrative: Tuple[str, ...]


@dataclass(frozen=True)
class BaseChangeCheck:
    commutes: bool
    discrepancies: Tuple[str, ...]
    restricted: SpectrumReport
    filtered: SpectrumReport

    def __bool__(self) -> bool:
        return self.commutes


def fiber_over(g: EdgeLabeledGraph, p: Union[Factor, RingElement]):
    """Partition of the vertices into classes glued over the factor ``p``,
    by its gluing links (``_links_of``) and the generic ones."""
    element = normalized_associate(p.element if isinstance(p, Factor) else p, g.ring.base())
    pairs = [(a, b) for a, b, q in _links_of(g) if q == GENERIC or q == element]
    return _partition(g.vertices, pairs)


def _links_of(g: EdgeLabeledGraph) -> List[Link]:
    """One link per (edge, factor) incidence, or one generic link for a zero
    label.  A residue ring is refused: there a factor of a label need not be
    prime (``4`` in ``Z/12``), and one label's ideal may contain another's
    (``4`` lies in ``(2)``), so links per factor would misstate the fibers."""
    if g.ring.kind == MODINT:
        raise UnsupportedRing("spectrum reports are not defined over residue rings")
    links: List[Link] = []
    for e in g.edges:
        if e.label.is_zero:
            links.append((e.a, e.b, GENERIC))
        else:
            for f in e.label.factors:
                links.append((e.a, e.b, f.element))
    return links


def _report(
    vertices: Tuple[str, ...], ring: RingDescriptor, links: Sequence[Link]
) -> SpectrumReport:
    """The report read off gluing links alone.

    The fiber at a factor is the partition by its links plus the generic
    ones, factors in ``canonical_key`` order; the generic links alone give
    the generic points, and all links the components and the hole count.
    """
    everywhere: List[Tuple[str, str]] = []
    glued: Dict[RingElement, List[Tuple[str, str]]] = {}
    for a, b, p in links:
        if p == GENERIC:
            everywhere.append((a, b))
        else:
            glued.setdefault(p, []).append((a, b))
    fibers = {
        p: _partition(vertices, everywhere + glued[p])
        for p in sorted(glued, key=canonical_key)
    }
    components = len(_partition(vertices, [(a, b) for a, b, _ in links]))
    return SpectrumReport(
        vertices=vertices,
        ring=ring,
        relevant_primes=tuple(fibers),
        fibers=fibers,
        links=tuple(links),
        fully_glued_pairs=tuple(everywhere),
        hole_count=len(links) - len(vertices) + components,
        components=components,
        generic_points=len(_partition(vertices, everywhere)),
    )


def spectrum_report(g: EdgeLabeledGraph) -> SpectrumReport:
    """Fibers, gluing links, hole count and component count for ``g``."""
    return _report(g.vertices, g.ring, _links_of(g))


# ---------------------------------------------------------------------------
# base change commutation


def base_change_commutes(g: EdgeLabeledGraph, invert) -> BaseChangeCheck:
    """Compare restricting-then-reporting with reporting-then-filtering.

    The filtered side is the report of ``g``'s gluing links minus those at
    inverted factors.  The two sides must agree exactly.
    """
    outcome = restrict(g, invert)
    restricted = spectrum_report(outcome.graph)
    inverted = outcome.graph.ring.inverted_elements()
    filtered = _report(
        g.vertices,
        restricted.ring,
        [(a, b, p) for a, b, p in _links_of(g) if p == GENERIC or p not in inverted],
    )

    issues = []
    if restricted.relevant_primes != filtered.relevant_primes:
        issues.append("relevant factors differ")
    else:
        for p in restricted.relevant_primes:
            if restricted.fibers[p] != filtered.fibers[p]:
                issues.append(f"fiber at {format_element(p, g.ring)} differs")
    if Counter(restricted.links) != Counter(filtered.links):
        issues.append("gluing links differ")
    if restricted.hole_count != filtered.hole_count:
        issues.append(
            f"hole count differs: {restricted.hole_count} vs {filtered.hole_count}"
        )
    if restricted.components != filtered.components:
        issues.append(
            f"components differ: {restricted.components} vs {filtered.components}"
        )
    if restricted.generic_points != filtered.generic_points:
        issues.append("generic point counts differ")
    return BaseChangeCheck(not issues, tuple(issues), restricted, filtered)


# ---------------------------------------------------------------------------
# deletion / contraction diffs


def _format_factor_key(p, ring: RingDescriptor) -> str:
    return "generic" if p == GENERIC else format_element(p, ring)


def _classes_text(classes: Sequence[Sequence[str]]) -> str:
    return " ".join("{" + ",".join(c) + "}" for c in classes)


def _same_graph(g: EdgeLabeledGraph, h: EdgeLabeledGraph) -> bool:
    """Equal up to vertex order and edge orientation."""

    def labels(x: EdgeLabeledGraph):
        return {frozenset((e.a, e.b)): e.label for e in x.edges}

    return (
        g.ring == h.ring and set(g.vertices) == set(h.vertices) and labels(g) == labels(h)
    )


def _infer_operation(before: EdgeLabeledGraph, after: EdgeLabeledGraph) -> Tuple[str, ...]:
    """The one operation the vertex sets allow, confirmed by running it on
    ``before``: its result must be ``after``."""
    bv, av = set(before.vertices), set(after.vertices)
    op, result = None, None
    if bv == av:
        removed = [e for e in before.edges if after.edge_between(e.a, e.b) is None]
        if len(removed) == 1:
            (e,) = removed
            op, result = ("delete-edge", e.a, e.b), delete_edge(before, e.a, e.b)
    elif av < bv and len(bv - av) == 1:
        (gone,) = bv - av
        op, result = ("delete-vertex", gone), delete_vertex(before, gone)
    elif len(av - bv) == 1 and len(bv - av) == 2:
        (merged,) = av - bv
        a, b = bv - av
        for u, v in ((a, b), (b, a)):
            if contracted_vertex(before, u, v) == merged and before.edge_between(u, v) is not None:
                op, result = ("contract", u, v, merged), contract_edge(before, u, v)
                break
    if op is None or not _same_graph(result, after):
        raise UnrelatedGraphs(
            "the graphs are not related by one edge deletion, vertex deletion "
            "or edge contraction"
        )
    return op


def spectrum_diff(before: EdgeLabeledGraph, after: EdgeLabeledGraph) -> SpectrumDiff:
    """Narrated comparison of the gluing structure across one graph operation."""
    op = _infer_operation(before, after)
    rb = spectrum_report(before)
    ra = spectrum_report(after)
    ring = before.ring
    lines: List[str] = []
    if op[0] == "delete-edge":
        lines.append(f"operation: delete-edge {op[1]}-{op[2]}")
        edge = before.edge_between(op[1], op[2])
        lines.append(f"edge removed: {op[1]}-{op[2]} (label {format_factored(edge.label, ring)})")
    elif op[0] == "delete-vertex":
        lines.append(f"operation: delete-vertex {op[1]}")
        lines.append(f"vertex removed: {op[1]}")
    else:
        lines.append(f"operation: contract {op[1]}-{op[2]}")
        lines.append(f"vertices identified: {op[1]}, {op[2]} -> {op[3]}")

    removed_links = Counter(rb.links) - Counter(ra.links)
    added_links = Counter(ra.links) - Counter(rb.links)
    for (a, b, p), count in sorted(removed_links.items(), key=repr):
        tag = _format_factor_key(p, ring)
        for _ in range(count):
            lines.append(f"gluing removed: {a}-{b} at {tag}")
    for (a, b, p), count in sorted(added_links.items(), key=repr):
        tag = _format_factor_key(p, ring)
        for _ in range(count):
            lines.append(f"gluing added: {a}-{b} at {tag}")

    for p in sorted(rb.fibers.keys() | ra.fibers.keys(), key=canonical_key):
        tb = _classes_text(rb.fibers[p]) if p in rb.fibers else "(absent)"
        ta = _classes_text(ra.fibers[p]) if p in ra.fibers else "(absent)"
        if tb != ta:
            lines.append(f"fiber at {format_element(p, ring)}: {tb} -> {ta}")

    if rb.components != ra.components:
        note = " (copies no longer glued)" if ra.components > rb.components else ""
        lines.append(f"components: {rb.components} -> {ra.components}{note}")
    else:
        lines.append(f"components: {rb.components} -> {ra.components}")
    lines.append(f"holeCount: {rb.hole_count} -> {ra.hole_count}")
    return SpectrumDiff(rb, ra, tuple(lines))
