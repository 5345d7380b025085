"""Spline modules: solvers, canonical bases, enumeration, membership.

A spline assigns a ring element to every vertex so that across each edge
the difference of endpoint values lies in the edge's ideal.  The module of
all splines is computed three ways:

* ``incremental_assembled`` grows the module edge by edge, extending by a
  new leaf vertex or imposing one further congruence,
* ``solve_direct`` runs the same build's leaf pullbacks, one per vertex,
  and imposes the other edges, the chords, at once,
* ``bruteforce_values`` lists every labeling over a residue ring, and
  ``enumerate_bruteforce`` lists them as ``Spline``s; one search serves
  both and builds each row once, in the type its caller returns (ints, or
  the shared ``Residue``s a row-backed ``Spline`` holds).

``spline_set`` lists the span of a residue module's rows, each element once,
over the Howell rows ``_hermite_completed`` gives.  The three enumerations
run with the cyclic garbage collector paused (``_collector_paused``): they
allocate a tuple, and maybe a ``Spline``, per element and nothing that can
form a cycle, so reference counting frees all they drop, and the collector
would only rescan their young tuples, once per 700 allocations.

The solvers are one walk, ``_grow``, that differs only in imposing the
chords together or one at a time, and a trace replays through it too;
brute force, and the tests' plain references (every edge imposed on the
coordinate vectors), keep the checks independent.  The walk has two
entries: ``_walk``, which visits the vertices of the whole graph in the
requested order, and ``replay_trace``.  Each vertex after the first is a
leaf on its earliest-declared edge to a vertex before it, or on the unit
ideal from the first vertex when it has none, so the built vertices are a
prefix of the order and the rows are canonical in it after every step.  An
edge that touches no built vertex can then come only from a broken trace,
and raises ``InternalError``.

The solvers compute over a Euclidean ring: ``Int``, univariate ``Q[x]``,
or ``Int`` for the residue ring ``Z/n``.  Each edge enters as its generator
in that work ring, from one helper, ``rings._edge_generator``: the label
without its inverted factors, expanded (a zero label gives zero, equality),
or over ``Z/n`` the integer modulus ``edge_modulus(label)``, a nonzero
divisor of ``n`` (a zero label gives ``n``).  A graph keeps these, in edge
order, as ``edge_generators``, derived on first use; the solvers,
``bruteforce_values`` and every ``gkm_check`` read them, so each label of a
graph is expanded once, and ``replay_trace`` derives each generator from
the label its trace records, so it checks that label.  A residue value
enters as its representative in ``[0, n)``.  Over ``Z/n`` the walk's
integer lattice ``{s : m_e | s_u - s_v}`` contains ``n`` times each
coordinate vector, so it is the full preimage of the residue module and
its canonical rows need no completion.  Every module leaves in one place,
``_canonical``, which takes rows that are canonical already: it finds the
pivots and, over ``Z/n``, drops the rows of pivot ``n`` (``n`` times a
coordinate vector) and maps the rest to residues.  The solvers' rows run
no Hermite pass on the way out.  ``_hermite_completed`` is the one caller
of ``hermite_rows``, with the ``n`` times coordinate vectors added over
``Z/n``; it serves ``flow_up_normalize``, whose generators may be any, and
``spline_set``, which enumerates over the Howell rows it leaves.
Every other step is the same on every ring: the Hermite core and
``membership`` compute with ``+ - * divmod`` (and ``//``, ``%``) on ints
and univariate ``Poly``s alike, and read the ring only for units
(``unit_part`` and the gcds and associates built on it) and for its zero
and one.

Bases are kept in flow-up (Hermite) form with respect to a fixed vertex
order: row ``i`` vanishes on the vertices before its pivot, pivots are
normalized associates, and entries above a pivot are reduced modulo it.
That form is unique, which makes golden tests possible, and it lets the
Hermite core take whatever route costs least to reach it:

* ``hermite_rows`` files each row under its leading column and touches a
  row again only when a combination changed it,
* ``_row_combine`` eliminates with one subtraction when one value divides
  the other, and uses the extended-gcd transform otherwise; the values are
  pivot entries in ``hermite_rows`` and edge differences in ``_sweep``,
* ``_impose`` cuts a triangular module down by edge congruences (all of a
  graph's chords, or one equalizer's edge) with one ``_sweep`` up the
  rows per congruence, which carries one Bezout row and keeps the module
  triangular on its pivot columns,
* ``_add_pivot_row`` normalizes a pivot and reduces the entries above it,
  for ``hermite_rows`` after each column and for ``_impose`` once at the
  end,
* a leaf pullback in ``_step`` starts from a canonical basis, so only the
  new column needs reducing, modulo the normalized edge generator; the
  step records just that column and the adjoined row.

One rule applies a recorded step to the rows before it, ``_apply``: a leaf
extends them, an equalizer replaces them by its matrix.  ``_grow`` runs it
after each step, and ``LimitTrace.matrices_after``, the forward pass from
the trace's recorded start matrix, runs it to yield each step's rows;
``formats`` prints them.
"""

from __future__ import annotations

import gc
from dataclasses import FrozenInstanceError, dataclass
from functools import wraps
from itertools import compress
from math import lcm
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import InternalError, InvalidValue, TooLarge, UnsupportedRing
from .graphs import Edge, EdgeLabeledGraph
from .rings import (
    INT,
    MODINT,
    POLYQ,
    FactoredElement,
    Poly,
    Residue,
    RingDescriptor,
    RingElement,
    _edge_generator,
    _extended_gcd,
    coerce,
    exact_divide,
    is_unit,
    normalized_associate,
    rational_quotient,
    unit_part,
)
from .rings import gcd as ring_gcd

_ENUMERATION_GUARD = 10**7


def _collector_paused(fn):
    """``fn`` with the cyclic garbage collector off while it runs.

    CPython counts every container it allocates toward a collection, one
    every 700 by default, so an enumeration that builds a million tuples
    runs over a thousand collections that scan the young objects and find
    nothing: a tuple of ints or ``Residue``s, a ``Residue`` and a
    ``Spline`` on its graph form no cycle, and reference counting frees
    them.  The collector is switched back on, in a ``finally``, only if it
    was on at entry, so a caller's ``gc.disable()`` and nested calls are
    respected.
    """

    @wraps(fn)
    def run(*args):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args)
        finally:
            if enabled:
                gc.enable()

    return run


Vector = Tuple[RingElement, ...]


class Spline:
    """One vertex labeling; ``values`` maps every vertex to a ring element.

    Immutable, and equal to another ``Spline`` exactly when their graphs
    and ``values`` are equal; like the mapping it holds, it has no hash.
    ``Spline(graph, values)`` keeps the caller's mapping.  A spline from
    ``enumerate_bruteforce`` keeps a row of values in ``graph.vertices``
    order instead, one tuple per spline: ``values`` is derived from the row
    on first read and kept, as ``Poly`` keeps the ``terms`` it derives, and
    ``value_tuple`` in the graph's vertex order is the row itself.  An
    assignment raises ``FrozenInstanceError``, and ``repr`` prints
    ``Spline(graph=..., values=...)``.
    """

    __slots__ = ("graph", "_values", "_row")
    __match_args__ = ("graph", "values")
    __hash__ = None

    def __init__(self, graph: EdgeLabeledGraph, values: Dict[str, RingElement]):
        _set_graph(self, graph)
        _set_values(self, values)
        _set_row(self, None)

    @property
    def values(self) -> Dict[str, RingElement]:
        try:
            return self._values
        except AttributeError:  # row-backed, first read
            values = dict(zip(self.graph.vertices, self._row))
            _set_values(self, values)
            return values

    def value_tuple(self, order: Sequence[str]) -> Vector:
        row = self._row
        if row is not None and (order is self.graph.vertices or order == self.graph.vertices):
            return row
        return tuple(map(self.values.__getitem__, order))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.graph, self.values) == (other.graph, other.values)
        return NotImplemented

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Spline, (self.graph, self.values)

    def __repr__(self):
        return f"{type(self).__qualname__}(graph={self.graph!r}, values={self.values!r})"


# Slot writers: ``Spline.__setattr__`` refuses every write.
_set_graph = Spline.graph.__set__
_set_values = Spline._values.__set__
_set_row = Spline._row.__set__


@dataclass(frozen=True)
class SplineModule:
    """A flow-up generating matrix for the module of splines.

    ``rows[i]`` is expressed in ``vertex_order`` coordinates and has its
    first nonzero entry at column ``pivots[i]``; the pivot columns are
    strictly increasing.
    """

    graph: EdgeLabeledGraph
    vertex_order: Tuple[str, ...]
    rows: Tuple[Vector, ...]
    pivots: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> Tuple[Spline, ...]:
        return tuple(
            Spline(self.graph, dict(zip(self.vertex_order, row))) for row in self.rows
        )


@dataclass(frozen=True)
class LeafPullback:
    """A fresh vertex ``new_vertex`` attached to ``attach_vertex``.

    The step records only what it changes: ``column``, the new column's
    entries on the rows it extended, and ``adjoined``, the row
    ``(0, ..., 0, p)`` it adds, ``None`` for a zero generator.  Its rows
    come from ``_apply`` on the rows before it."""

    new_vertex: str
    attach_vertex: str
    label: FactoredElement
    vertices_after: Tuple[str, ...]
    column: Vector
    adjoined: Optional[Vector]


@dataclass(frozen=True)
class EdgeEqualizer:
    u: str
    v: str
    label: FactoredElement
    vertices_after: Tuple[str, ...]
    matrix_after: Tuple[Vector, ...]


Step = Union[LeafPullback, EdgeEqualizer]


def _apply(rows, step: Step):
    """The rows after ``step``: a leaf extends ``rows``, one entry on each
    row and then its adjoined row; an equalizer replaces them by its
    ``matrix_after``.  Lists of rows are extended in place and returned; a
    tuple of rows (a full matrix) is copied to lists first."""
    if isinstance(step, EdgeEqualizer):
        return step.matrix_after
    if type(rows) is tuple:
        rows = [list(r) for r in rows]
    for row, x in zip(rows, step.column):
        row.append(x)
    if step.adjoined is not None:
        rows.append(list(step.adjoined))
    return rows


@dataclass(frozen=True)
class LimitTrace:
    """The construction order of the incremental build and what each step
    changed: an equalizer's full matrix, a leaf's new column.  Applying
    the steps to ``start_matrix``, the one-vertex module on
    ``start_vertex``, reproduces the final normalized basis."""

    start_vertex: str
    start_matrix: Tuple[Vector, ...]
    steps: Tuple[Step, ...]

    def matrices_after(self) -> Iterator[Tuple[Vector, ...]]:
        """Each step's rows, from one running matrix that ``_apply`` takes
        through the steps from ``start_matrix``."""
        rows = self.start_matrix
        for step in self.steps:
            rows = _apply(rows, step)
            yield tuple(map(tuple, rows))


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    # (numerator, denominator) per basis row; denominators are units unless
    # the ring is localized, in which case they are products of inverted
    # factors.
    coefficients: Optional[Tuple[Tuple[RingElement, RingElement], ...]] = None

    def __bool__(self) -> bool:
        return self.member


# ---------------------------------------------------------------------------
# the way in: the ring the solvers compute in


def work_ring(ring: RingDescriptor) -> RingDescriptor:
    """``Int`` for a residue ring, the ring itself otherwise."""
    return RingDescriptor.integers() if ring.kind == MODINT else ring


def _lift_value(x, ring: RingDescriptor) -> RingElement:
    """A value of ``ring`` as an element of ``work_ring(ring)``.

    This is where a caller's value is checked against the ring.  A value
    whose type already is the work ring's, an exact ``int`` over ``Int`` or
    a ``Poly`` in the ring's variables over ``Q[...]``, is returned as it
    is; every other value goes through ``coerce``, so a value of another
    ring raises ``MixedRings``.
    """
    if type(x) is int:
        if ring.kind == INT:
            return x
    elif type(x) is Poly and ring.kind == POLYQ and x.nvars == ring.nvars:
        return x
    x = coerce(x, ring)
    return x.value if isinstance(x, Residue) else x


def _lift_rows(rows: Sequence[Vector], ring: RingDescriptor) -> Sequence[Vector]:
    """A module's rows over ``work_ring(ring)``; residues become their
    representatives in ``[0, n)``."""
    if ring.kind != MODINT:
        return rows
    return [tuple(x.value for x in row) for row in rows]


def gkm_check(g: EdgeLabeledGraph, s: Spline) -> bool:
    """Whether the labeling satisfies every edge congruence.

    The generators are the graph's stored ``edge_generators``.  Each
    endpoint value is lifted once, when the first edge that reaches it is
    checked, so values at isolated vertices and past the first broken
    congruence are never read.  Over a Euclidean work ring the test is the
    Hermite core's ``d % gen``; over several variables it is
    ``exact_divide``.
    """
    ring, values = g.ring, s.values
    work = work_ring(ring)
    euclidean = work.kind == INT or work.nvars == 1
    lifted: Dict[str, RingElement] = {}
    for e, gen in zip(g.edges, g.edge_generators):
        a = lifted.get(e.a)
        if a is None:
            a = lifted[e.a] = _lift_value(values[e.a], ring)
        b = lifted.get(e.b)
        if b is None:
            b = lifted[e.b] = _lift_value(values[e.b], ring)
        d = a - b
        if not gen:
            if d:
                return False
        elif euclidean:
            if d % gen:
                return False
        elif exact_divide(d, gen, work) is None:
            return False
    return True


# ---------------------------------------------------------------------------
# Hermite machinery over the Euclidean rings (Int, univariate PolyQ), on
# their shared operators


def _require_euclidean_ring(ring: RingDescriptor, op: str) -> None:
    """``ring`` is a ``work_ring``, so it is ``Int`` or a polynomial ring."""
    if ring.kind == INT or (ring.kind == POLYQ and ring.nvars == 1):
        return
    raise UnsupportedRing(
        f"{op} needs a Euclidean coefficient ring; multivariate polynomial "
        "bases are out of scope here - use the certificate tools for "
        "freeness verdicts over several variables"
    )


def _minus_multiple(row: Vector, q: RingElement, by: Vector) -> Vector:
    """``row - q*by``, computed only where ``by`` is nonzero."""
    out = list(row)
    for i, y in compress(enumerate(by), by):
        out[i] -= q * y
    return tuple(out)


def _row_combine(r1: Vector, r2: Vector, a: RingElement, b: RingElement, ring: RingDescriptor):
    """Unimodular 2x2 transform of two rows on which one linear form takes
    the nonzero values ``a`` and ``b``: returns ``(g, r, z)`` with ``g`` a
    gcd of ``a`` and ``b``, ``r`` a row of value ``g`` and ``z`` a row of
    value zero.  The form is a column in ``hermite_rows`` and an edge
    difference in ``_sweep``.

    When one value divides the other, the transform is one elimination:
    the row with the dividing value is kept and the other row loses a
    multiple of it, computed only where the kept row is nonzero.  ``b`` is
    tried as the divisor first, so for associate values ``r2`` is kept, as
    the extended-gcd transform keeps it.
    Otherwise it is the transform ``(u*r1 + v*r2, (b/g)*r1 - (a/g)*r2)``
    with ``u*a + v*b = g``.
    """
    for kept, other, d, x in ((r2, r1, b, a), (r1, r2, a, b)):
        q, rem = divmod(x, d)
        if not rem:
            return d, kept, _minus_multiple(other, q, kept)
    g, u, v = _extended_gcd(a, b, ring)
    ca, cb = a // g, b // g
    new1 = tuple(u * x + v * y for x, y in zip(r1, r2))
    new2 = tuple(cb * x - ca * y for x, y in zip(r1, r2))
    return g, new1, new2


def _add_pivot_row(fixed: List[Vector], row: Vector, col: int, ring: RingDescriptor) -> None:
    """Normalize ``row`` at its pivot ``col``, reduce the entries of the
    ``fixed`` rows above it modulo that pivot, and append it.  Reducing
    above a pivot changes only the earlier rows, at and after ``col``."""
    u = unit_part(row[col], ring)
    if u != 1:
        inv = rational_quotient(1, u)
        row = tuple(x * inv for x in row)
    p = row[col]
    for i, prev in enumerate(fixed):
        if prev[col]:
            q = prev[col] // p
            if q:
                fixed[i] = _minus_multiple(prev, q, row)
    fixed.append(row)


def _file_row(buckets: List[List[Vector]], row: Vector, start: int) -> None:
    """Append ``row`` to the bucket of its first nonzero column at or after
    ``start``; a row that is zero there is dropped."""
    for col in range(start, len(buckets)):
        if row[col]:
            buckets[col].append(row)
            return


def hermite_rows(rows: Iterable[Vector], width: int, ring: RingDescriptor):
    """Canonical row Hermite form; returns ``(rows, pivots)`` without zero rows.

    Every row is filed once in the bucket of its leading column.  Column
    ``col`` folds its bucket into one row with ``_row_combine``; each
    second row that comes out is zero up to ``col`` and is filed again
    from ``col + 1``, so no column rescans rows that are zero there.  The
    folded row then becomes a pivot row (``_add_pivot_row``).

    The one caller is ``_hermite_completed``, for ``flow_up_normalize`` and
    ``spline_set``; the solvers' rows are canonical without it.
    """
    buckets: List[List[Vector]] = [[] for _ in range(width)]
    for r in rows:
        _file_row(buckets, tuple(r), 0)
    fixed: List[Vector] = []
    pivots: List[int] = []
    for col, carrying in enumerate(buckets):
        if not carrying:
            continue
        acc = carrying[0]
        for r in carrying[1:]:
            _, acc, r2 = _row_combine(acc, r, acc[col], r[col], ring)
            _file_row(buckets, r2, col + 1)
        carrying.clear()  # free the folded rows before the next column
        _add_pivot_row(fixed, acc, col, ring)
        pivots.append(col)
    return tuple(fixed), tuple(pivots)


def _hermite_completed(rows: Sequence[Vector], width: int, ring: RingDescriptor):
    """``hermite_rows`` over ``work_ring(ring)`` of ``rows``, given in the
    work ring; over ``Z/n`` they are completed by ``n`` times each
    coordinate vector first.

    Over ``Z/n`` the completed lattice is the full integer preimage of the
    residue module the rows span, so it has full rank: its canonical rows are
    ``width`` rows with pivots ``d`` dividing ``n``, and a row of pivot
    ``n`` is ``n`` times its coordinate vector (its other entries are
    reduced below later pivots that divide ``n``).  The other rows are a
    Howell basis of the residue module.  ``flow_up_normalize`` and
    ``spline_set`` call this; the solvers' rows need no pass.
    """
    if ring.kind == MODINT:
        n = ring.modulus
        rows = list(rows) + [tuple(n if j == i else 0 for j in range(width)) for i in range(width)]
    return hermite_rows(rows, width, work_ring(ring))


def _sweep(
    rows: Sequence[Vector], width: int, a: int, b: int, gen: RingElement, ring: RingDescriptor
) -> List[Vector]:
    """Triangular rows of ``{r in span(rows) : gen | r[a] - r[b]}`` for
    triangular ``rows``, each with the pivot column of the row it came from;
    a zero ``gen`` means ``r[a] = r[b]``.  Pivots are left unnormalized and
    entries above them unreduced.

    One pass from the last row up carries a gcd ``G`` and a row ``B`` of the
    rows passed, with ``B[a] - B[b] = G`` modulo ``gen``; ``G`` generates
    the ideal of ``gen`` and those rows' differences, so it starts as
    ``gen`` with ``B`` zero.  A row ``r`` whose difference ``c`` is zero is kept; otherwise
    ``_row_combine`` of ``r`` and ``B`` keeps the combination of difference
    zero, ``r - (c/G)*B`` when ``G | c``, and carries the other as ``B``
    with the gcd as ``G``.  Over a zero ``gen`` the lowest row of nonzero
    difference has no partner: it leaves the module and starts ``B``.  Each
    kept row is ``r`` times a nonzero element plus rows below it, so the
    kernel is triangular on the same pivots, less the row that left.
    """
    kept: List[Vector] = []
    G = gen
    B = (ring.zero(),) * width if gen else None
    for r in reversed(rows):
        c = r[a] - r[b]
        if c and gen:
            c %= gen
        if not c:
            kept.append(r)
        elif B is None:
            G, B = c, r
        else:
            G, B, r = _row_combine(r, B, c, G, ring)
            kept.append(r)
    kept.reverse()
    return kept


def _impose(
    rows: Sequence[Vector],
    width: int,
    constraints: Sequence[Tuple[int, int, RingElement]],
    ring: RingDescriptor,
) -> Tuple[Vector, ...]:
    """Canonical rows of ``{r in span(rows) : gen | r[a] - r[b]}`` over
    every constraint ``(a, b, gen)`` for triangular ``rows``; a zero ``gen``
    means ``r[a] = r[b]``.

    Each constraint is one ``_sweep`` up the rows, which keeps them
    triangular on a subset of their pivot columns; one finishing pass then
    normalizes each pivot and reduces the entries above it
    (``_add_pivot_row``).  The pivots increase down the rows, so each is
    found by scanning on from the one before.  ``rows`` may be tuples or
    ``_grow``'s lists; every row returned is a tuple, and a tuple that
    neither a sweep nor the finishing pass changed is returned as it is.
    """
    for a, b, gen in constraints:
        rows = _sweep(rows, width, a, b, gen, ring)
    fixed: List[Vector] = []
    col = 0
    for row in rows:
        while not row[col]:
            col += 1
        _add_pivot_row(fixed, tuple(row), col, ring)
        col += 1
    return tuple(fixed)


# ---------------------------------------------------------------------------
# the way out: one canonical form


def _canonical(
    g: EdgeLabeledGraph, order: Sequence[str], rows: Sequence[Vector]
) -> SplineModule:
    """The flow-up module of ``g`` whose rows over the work ring are
    ``rows``, canonical in ``order`` already; nothing is reduced here.

    Each pivot is the first nonzero column of its row, found by scanning on
    from the pivot before.  Over ``Z/n`` the rows contain ``n`` times each
    coordinate vector, since every edge modulus divides ``n``; in the
    canonical form the rows whose pivot is ``n`` are exactly those vectors.
    They vanish modulo ``n`` and are dropped, and the rest become
    ``Residue``s.
    """
    pivots: List[int] = []
    col = 0
    for row in rows:
        while not row[col]:
            col += 1
        pivots.append(col)
        col += 1
    if g.ring.kind != MODINT:
        return SplineModule(g, tuple(order), tuple(rows), tuple(pivots))
    n = g.ring.modulus
    kept = [(row, p) for row, p in zip(rows, pivots) if row[p] != n]
    return SplineModule(
        g,
        tuple(order),
        tuple(tuple(Residue(x, n) for x in row) for row, _ in kept),
        tuple(p for _, p in kept),
    )


# ---------------------------------------------------------------------------
# the diagram walk, in the requested vertex order


def _check_vertex_order(g: EdgeLabeledGraph, vertex_order: Optional[Sequence[str]]):
    if vertex_order is None:
        return g.vertices
    order = tuple(vertex_order)
    if sorted(order) != sorted(g.vertices):
        raise InvalidValue("vertex order must be a permutation of the graph's vertices")
    return order


def _step(
    built: Tuple[str, ...],
    column: Dict[str, int],
    rows: Sequence[Sequence[RingElement]],
    e: Edge,
    gen: RingElement,
    ring: RingDescriptor,
) -> Step:
    """Insert the edge ``e`` into the module ``rows`` on ``built``, whose
    vertices sit at the columns ``column`` gives.

    ``rows`` is canonical over the work ring ``ring``, and so is the step's
    module; ``gen`` is the edge's generator there, and its label is
    recorded.  The step changes neither ``rows`` nor ``column``.

    An edge to a fresh vertex extends every generator by its value at the
    attachment vertex and adjoins the generator supported on the new vertex
    alone.  Only the new column needs reducing: the old columns are already
    canonical and the adjoined row is zero on them, so each extended entry
    is reduced modulo the normalized edge generator, the adjoined row's
    pivot.  A zero generator, which arises only over ``Int`` and ``Q[x]``
    (over ``Z/n`` every generator divides ``n``), adjoins nothing and the
    column is a plain copy.
    The ``LeafPullback`` records that column and the adjoined row only.

    An edge between built vertices cuts ``rows`` down to the combinations
    that meet its congruence: ``_impose`` with that one constraint, whose
    rows the ``EdgeEqualizer`` records in full.  An edge that touches no
    built vertex is a broken invariant: ``InternalError``.
    """
    a, b = e.a, e.b
    ca, cb = column.get(a), column.get(b)
    if ca is not None and cb is not None:
        matrix = _impose(rows, len(built), [(ca, cb, gen)], ring)
        return EdgeEqualizer(a, b, e.label, built, matrix)
    if ca is not None or cb is not None:
        attach, new, ia = (a, b, ca) if ca is not None else (b, a, cb)
        if not gen:
            entries, adjoined = tuple(row[ia] for row in rows), None
        else:
            p = normalized_associate(gen, ring)
            entries = tuple(row[ia] % p for row in rows)
            adjoined = (ring.zero(),) * len(built) + (p,)
        return LeafPullback(new, attach, e.label, built + (new,), entries, adjoined)
    raise InternalError(f"edge {a!r}-{b!r} does not touch the module built so far")


def _grow(
    ring: RingDescriptor,
    start: str,
    edges: Sequence[Edge],
    gens: Sequence[RingElement],
    chords_at_once: bool,
) -> Tuple[Tuple[str, ...], Tuple[Vector, ...], LimitTrace]:
    """Walk ``edges`` (generators ``gens`` in the work ring ``ring``) from
    the one-vertex module on ``start``: each edge is one ``_step``, a leaf
    pullback to a fresh vertex or an edge equalizer between built vertices,
    and ``_apply`` takes the rows through it.  With ``chords_at_once`` an
    edge between built vertices, a chord, is not stepped, and one
    ``_impose`` of every chord ends the walk.  Returns the built vertices,
    the module's canonical rows on them and the trace of the steps.

    A leaf extends the rows in place, so a tree costs no row copies.  An
    equalizer's rows stay the tuples ``_impose`` returned, which share
    every row it left unchanged with the matrix before; they become lists
    again only at the next leaf.
    """
    built: Tuple[str, ...] = (start,)
    column = {start: 0}  # built vertex -> its column
    start_matrix = rows = ((ring.one(),),)
    steps: List[Step] = []
    chords = []
    for e, gen in zip(edges, gens):
        if chords_at_once and e.a in column and e.b in column:
            chords.append((column[e.a], column[e.b], gen))
            continue
        step = _step(built, column, rows, e, gen, ring)
        steps.append(step)
        rows = _apply(rows, step)
        built = step.vertices_after
        if isinstance(step, LeafPullback):
            column[step.new_vertex] = len(built) - 1
    trace = LimitTrace(start, start_matrix, tuple(steps))
    if chords_at_once:
        return built, _impose(rows, len(built), chords, ring), trace
    return built, tuple(map(tuple, rows)), trace


def _walk(
    g: EdgeLabeledGraph, order: Sequence[str], chords_at_once: bool
) -> Tuple[Tuple[Vector, ...], List[LimitTrace]]:
    """``_grow`` over the whole of ``g``, visiting the vertices in ``order``;
    returns the rows and the one trace (none for a graph without vertices).

    Each vertex after the first is a leaf on its earliest-declared edge to
    a vertex before it in ``order``.  A vertex with no such edge is a leaf
    on the unit ideal, attached to the first vertex: the edge ``normalize``
    would drop, which imposes nothing.  Its other edges to earlier vertices
    follow as chords.  So the built vertices are always a prefix of
    ``order``, and the rows are canonical in ``order`` after every step."""
    if not order:
        return (), []
    col = {v: i for i, v in enumerate(order)}
    back: List[List[Tuple[Edge, RingElement]]] = [[] for _ in order]
    for e, gen in zip(g.edges, g.edge_generators):
        back[max(col[e.a], col[e.b])].append((e, gen))
    ring = work_ring(g.ring)
    walk: List[Tuple[Edge, RingElement]] = []
    for v, earlier in zip(order[1:], back[1:]):
        walk += earlier or [(Edge(order[0], v, FactoredElement.unit()), ring.one())]
    edges, gens = zip(*walk) if walk else ((), ())
    _, rows, trace = _grow(ring, order[0], edges, gens, chords_at_once)
    return rows, [trace]


def solve_direct(
    g: EdgeLabeledGraph, vertex_order: Optional[Sequence[str]] = None
) -> SplineModule:
    """Flow-up basis of the spline module: the incremental build's leaf
    pullbacks in ``vertex_order``, then one ``_impose`` of every chord, over
    the work ring (the integers with edge moduli for a residue ring).
    """
    order = _check_vertex_order(g, vertex_order)
    _require_euclidean_ring(work_ring(g.ring), "basis computation")
    return _canonical(g, order, _walk(g, order, True)[0])


def incremental_assembled(
    g: EdgeLabeledGraph, vertex_order: Optional[Sequence[str]] = None
) -> Tuple[SplineModule, List[LimitTrace]]:
    """The module built one edge at a time in ``vertex_order``, and its one
    trace."""
    order = _check_vertex_order(g, vertex_order)
    _require_euclidean_ring(work_ring(g.ring), "the incremental builder")
    rows, traces = _walk(g, order, False)
    return _canonical(g, order, rows), traces


def replay_trace(g: EdgeLabeledGraph, trace: LimitTrace) -> Tuple[Vector, ...]:
    """Re-run the recorded steps; returns the final (normalized) matrix.

    ``_grow`` walks the recorded edges again, each generator derived from
    the recorded label, so a replay checks the labels as well as the
    matrices: the walk must run, and its start matrix and steps must equal
    the recorded ones; ``InternalError`` otherwise.  Steps compare by what
    they record, an equalizer's matrix and a leaf's column and adjoined
    row; equal steps applied to equal start matrices give equal matrices,
    by induction, so every matrix ``matrices_after`` yields is checked too.
    """
    edges = [
        Edge(s.attach_vertex, s.new_vertex, s.label)
        if isinstance(s, LeafPullback)
        else Edge(s.u, s.v, s.label)
        for s in trace.steps
    ]
    gens = [_edge_generator(e.label, g.ring) for e in edges]
    _, rows, replayed = _grow(work_ring(g.ring), trace.start_vertex, edges, gens, False)
    if replayed != trace:
        raise InternalError("trace does not replay to its recorded matrices")
    return rows


# ---------------------------------------------------------------------------
# brute force enumeration over residue rings


@_collector_paused
def bruteforce_values(g: EdgeLabeledGraph) -> List[Tuple[int, ...]]:
    """The value tuples, in ``g.vertices`` order, of every labeling over a
    residue ring passing the congruence check.

    ``_bruteforce_rows`` with the values as ints: each tuple is built once,
    by extending its prefix at the last vertex.

    Guarded at ``n^|V| <= 10**7``.
    """
    return _bruteforce_rows(g, residues=False)


@_collector_paused
def enumerate_bruteforce(g: EdgeLabeledGraph) -> List[Spline]:
    """``bruteforce_values`` as ``Spline``s, in the same order.

    The same search emits each row once, as a tuple of ``Residue``s shared
    across splines, and each ``Spline`` is backed by its row (see
    ``Spline``): no int row is built for a spline, and none is remapped.
    """
    rows = _bruteforce_rows(g, residues=True)
    new = object.__new__
    splines = []
    append = splines.append
    for row in rows:
        s = new(Spline)
        _set_graph(s, g)
        _set_row(s, row)
        append(s)
    return splines


def _bruteforce_rows(g: EdgeLabeledGraph, residues: bool) -> list:
    """The search behind ``bruteforce_values`` and ``enumerate_bruteforce``.

    Prefixes of int values grow along ``g.vertices``, and each edge
    congruence ``m | x_i - x_j`` is checked at its later endpoint, as soon
    as both values exist, so a prefix that already breaks one is never
    extended.  The modulus ``m`` is the edge's stored generator, its
    ``edge_modulus``, which is ``n`` for a zero label; edges of modulus 1
    impose nothing and are skipped.  Every ``m`` divides ``n``, so the
    values a prefix admits at a vertex are ``x0, x0 + M, ...`` below ``n``
    with ``M`` the lcm of the moduli checked there: ``x0`` is searched in
    ``[0, M)`` only, along the first congruence's class, and a prefix whose
    congruences disagree is dropped; with one congruence ``x0`` is that
    class's own.  Values come in increasing order, so the rows are in
    lexicographic order of the value tuples, exactly the order of the full
    ``n^|V|`` product.

    At the last vertex each surviving prefix is lifted once into the row's
    type and extended by one-value tuples from a table, so each row is
    built once: ints stay ints, and with ``residues`` every value becomes
    the one ``Residue`` the table holds for it.  The search reads only the
    edges: neither pivots nor any Hermite structure, and no solver.
    """
    if g.ring.kind != MODINT:
        raise UnsupportedRing("brute-force enumeration needs a residue ring")
    n = g.ring.modulus
    nv = len(g.vertices)
    if n**nv > _ENUMERATION_GUARD:
        raise TooLarge(f"{n}^{nv} labelings exceed the enumeration guard")
    if not nv:
        return [()]
    index = {v: i for i, v in enumerate(g.vertices)}
    # checks[k]: the (earlier vertex, modulus) pairs checked at vertex k.
    checks: List[List[Tuple[int, int]]] = [[] for _ in range(nv)]
    for e, gen in zip(g.edges, g.edge_generators):
        i, j = sorted((index[e.a], index[e.b]))
        if i != j and gen != 1:
            checks[j].append((i, gen))
    # An int prefix lifts by ``tuple``, which returns a tuple itself.
    ints = [(x,) for x in range(n)]
    prefixes: List[Tuple[int, ...]] = [()]
    for at in checks[:-1]:
        prefixes = _admit(prefixes, at, ints, tuple)
    if not residues:
        return _admit(prefixes, checks[-1], ints, tuple)
    # One shared Residue per value.
    table = [Residue(x, n) for x in range(n)]
    lift = table.__getitem__
    return _admit(prefixes, checks[-1], [(r,) for r in table], lambda p: tuple(map(lift, p)))


def _admit(prefixes, at, ones, lift):
    """Each prefix, through ``lift``, extended by every value that passes
    the congruences ``at``; ``ones[x]`` is the one-value tuple of ``x``.

    ``lift`` runs once per prefix that admits a value: the first congruence
    fixes x modulo m0, and all of them, if they agree, fix x modulo
    ``step = lcm(m_i)``, a divisor of n, so at most one x0 in [0, step)
    passes.
    """
    if not at:
        return [q + x for p in prefixes for q in (lift(p),) for x in ones]
    (i0, m0), rest = at[0], at[1:]
    step = lcm(*(m for _, m in at))
    return [
        q + x
        for p in prefixes
        for x0 in range(p[i0] % m0, step, m0)
        if all((x0 - p[i]) % m == 0 for i, m in rest)
        for q in (lift(p),)
        for x in ones[x0::step]
    ]


@_collector_paused
def spline_set(module: SplineModule) -> frozenset:
    """All value tuples spanned by a residue-ring module's rows.

    Only the rows are read, as generators; neither the pivots nor any
    Hermite structure is assumed, so the set is right for any generating
    rows and independent of the solver that produced them.  Their Howell
    rows (Storjohann-Mulders) come from ``_hermite_completed``: the
    canonical integer rows of the span's full preimage, with ``n`` times
    each coordinate vector, less the rows of pivot ``n``.  Each kept row
    ``h`` has a pivot ``d`` dividing ``n``, and every element of the span
    is ``sum c_h*h`` modulo ``n`` for exactly one choice of
    ``0 <= c_h < n/d``: at the first column where two choices differ the
    difference is ``(c_h - c_h')*d``, not a multiple of ``n``.  So the
    enumeration emits each of the ``prod(n/d)`` elements once, one list of
    values per coordinate, and builds no set until the last.

    Guarded at ``n^rank <= 10**7``.
    """
    g = module.graph
    if g.ring.kind != MODINT:
        raise UnsupportedRing("spanning sets are enumerated over residue rings only")
    n = g.ring.modulus
    if n ** module.rank > _ENUMERATION_GUARD:
        raise TooLarge("the spanned set exceeds the enumeration guard")
    width = len(module.vertex_order)
    if not width:
        return frozenset({()})
    rows, pivots = _hermite_completed(_lift_rows(module.rows, g.ring), width, g.ring)
    columns = [[0] for _ in range(width)]
    for row, p in zip(rows, pivots):
        k = n // row[p]  # the row's order; 1 for n times a coordinate vector
        if k == 1:
            continue
        # The span so far, translated by each multiple c*row, c < k.
        columns = [
            [(x + t) % n for t in range(0, k * step, step) for x in col] if step else col * k
            for col, step in zip(columns, row)
        ]
    return frozenset(zip(*columns))


# ---------------------------------------------------------------------------
# flow-up normalization and membership


def flow_up_normalize(
    generators: Sequence[Spline],
    vertex_order: Optional[Sequence[str]] = None,
    graph: Optional[EdgeLabeledGraph] = None,
) -> SplineModule:
    """Hermite-reduce a generator list to the canonical flow-up basis.

    The generators may be any splines, so their values, lifted to the work
    ring, take the Hermite pass of ``_hermite_completed``, which over
    ``Z/n`` first adds ``n`` times each coordinate vector, as ``_canonical``
    expects.
    """
    if graph is None:
        if not generators:
            raise ValueError("cannot infer the graph from an empty generator list")
        graph = generators[0].graph
    order = _check_vertex_order(graph, vertex_order)
    ring = work_ring(graph.ring)
    _require_euclidean_ring(ring, "flow-up normalization")
    rows = [tuple(_lift_value(s.values[v], graph.ring) for v in order) for s in generators]
    return _canonical(graph, order, _hermite_completed(rows, len(order), graph.ring)[0])


def localize_module(module: SplineModule, invert) -> SplineModule:
    """View the same generating rows over the localization inverting ``invert``.

    Membership against the result accepts coefficient denominators built
    from the inverted factors, which is how one asks whether a spline lies
    in the original module after base change.
    """
    g = module.graph
    ring = g.ring.localize(invert)
    carrier = EdgeLabeledGraph(ring, g.vertices, g.edges)
    return SplineModule(carrier, module.vertex_order, module.rows, module.pivots)


def _strip_inverted(x: RingElement, ring: RingDescriptor) -> RingElement:
    for f in ring.inverted:
        while True:
            q, r = divmod(x, f.element)
            if r:
                break
            x = q
    return x


def membership(module: SplineModule, s: Spline) -> MembershipResult:
    """Back-substitute along the triangular basis, deciding at each pivot.

    Over a localized ring the coefficients may carry denominators built
    from inverted factors; otherwise denominators must be units.  The
    returned coefficients recombine exactly to ``s``.

    The residual is kept as ``residual / denominator``.  Each row's
    coefficient is that fraction's pivot entry over the pivot, fixed
    uniquely by the rows before it: one ``divmod`` finds it when it is
    integral, and otherwise one gcd reduces it, with a normalized
    denominator.  A denominator that is not a product of inverted factors
    ends the test at once.  No content is divided out of the residual: a
    coefficient is a reduced fraction, which a common content of the
    residual and the denominator cannot change.

    The substitution runs over the work ring, on values ``_lift_value``
    checked once as they were read; nothing is coerced inside the loop.
    The lifted rows of a residue module are the canonical integer rows
    ``_canonical`` kept; the rows it dropped, those of pivot ``n``, are
    ``n`` times coordinate vectors, which only clear their own column, so
    ``s`` is a member exactly when every pivot divides and the final
    residual vanishes modulo ``n``.  Over ``Z/n`` only, the residual is
    reduced modulo ``n`` and the coefficients are mapped to residues, once,
    at the end.
    """
    g = module.graph
    ring = work_ring(g.ring)
    _require_euclidean_ring(ring, "membership testing")
    one = ring.one()
    rows = _lift_rows(module.rows, g.ring)
    residual = [_lift_value(s.values[v], g.ring) for v in module.vertex_order]
    denominator = one
    coefficients = []
    for row, p in zip(rows, module.pivots):
        a = residual[p]
        den = denominator * row[p]
        num, r = divmod(a, den)
        if r:
            c = ring_gcd(a, den, ring)
            num, den = a // c, den // c
            num = num * rational_quotient(1, unit_part(den, ring))
            den = normalized_associate(den, ring)
            if not is_unit(_strip_inverted(den, ring), ring):
                return MembershipResult(False)
            residual = [x * den for x in residual]
        else:
            den = one
        if num:
            residual = _minus_multiple(residual, num * denominator, row)
        denominator = denominator * den
        coefficients.append((num, den))
    if g.ring.kind == MODINT:
        n = g.ring.modulus
        residual = [x % n for x in residual]
        coefficients = [(Residue(num, n), Residue(den, n)) for num, den in coefficients]
    if any(residual):
        return MembershipResult(False)
    return MembershipResult(True, tuple(coefficients))
