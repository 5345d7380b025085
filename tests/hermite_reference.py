"""Plain references the Hermite core must match entry for entry.

``reference_hermite_rows`` is the row Hermite form without shortcuts: every
column rescans every remaining row for a nonzero entry, and every pair of
carrying rows is combined by the extended-gcd transform, with no shortcut
for divisible entries.

``reference_impose`` is the module cut out by edge congruences, computed
with a second elimination engine: column operations find the kernel of
each congruence on the coefficient vectors (``reference_kernel_basis``),
and the kernel's combinations of the rows are put in Hermite form.

``reference_component_rows`` is the solvers' module of a graph, connected
or not, computed without spanning trees or components: every edge
congruence imposed with ``reference_impose`` on the coordinate vectors.
"""

from gsplines.rings import INT, exact_divide, extended_gcd, is_zero_element, poly_divmod, unit_part


def _combine(r1, r2, ring, col):
    a, b = r1[col], r2[col]
    g, u, v = extended_gcd(a, b, ring)
    ca = exact_divide(a, g, ring)
    cb = exact_divide(b, g, ring)
    new1 = tuple(u * x + v * y for x, y in zip(r1, r2))
    new2 = tuple(cb * x - ca * y for x, y in zip(r1, r2))
    return new1, new2


def _normalize(row, col, ring):
    u = unit_part(row[col], ring)
    if ring.kind == INT:
        return row if u == 1 else tuple(-x for x in row)
    inv = 1 / u
    return tuple(x * inv for x in row)


def _divmod(a, p, ring):
    return (a // p, a % p) if ring.kind == INT else poly_divmod(a, p)


def reference_hermite_rows(rows, width, ring):
    """``(rows, pivots)`` of the canonical row Hermite form, zero rows dropped."""
    work = [tuple(r) for r in rows]
    fixed = []
    pivots = []
    for col in range(width):
        carrying = [r for r in work if not is_zero_element(r[col])]
        if not carrying:
            continue
        rest = [r for r in work if is_zero_element(r[col])]
        acc = carrying[0]
        for r in carrying[1:]:
            acc, r2 = _combine(acc, r, ring, col)
            if any(not is_zero_element(x) for x in r2):
                rest.append(r2)
        acc = _normalize(acc, col, ring)
        for i, prev in enumerate(fixed):
            q, _ = _divmod(prev[col], acc[col], ring)
            if not is_zero_element(q):
                fixed[i] = tuple(x - q * y for x, y in zip(prev, acc))
        fixed.append(acc)
        pivots.append(col)
        work = rest
    return tuple(fixed), tuple(pivots)


def reference_kernel_basis(rows, ncols, ring):
    """Basis of the (free) solution module of ``rows * x = 0``.

    Column operations bring the matrix to echelon form while the same
    operations act on an identity block; the transform columns aligned
    with zero columns span the kernel.  Each column is held as one tuple,
    its entries in ``rows`` followed by its transform block.
    """
    nrows = len(rows)
    zero, one = ring.zero(), ring.one()
    cols = [
        tuple(row[j] for row in rows) + tuple(one if i == j else zero for i in range(ncols))
        for j in range(ncols)
    ]
    free = list(range(ncols))
    for r in range(nrows):
        pivot = None
        for j in list(free):
            if is_zero_element(cols[j][r]):
                continue
            if pivot is None:
                pivot = j
                continue
            cols[pivot], cols[j] = _combine(cols[pivot], cols[j], ring, r)
        if pivot is not None:
            free.remove(pivot)
    return [cols[j][nrows:] for j in free]


def reference_impose(rows, width, constraints, ring):
    """Canonical rows of ``{r in span(rows) : gen | r[a] - r[b]}`` over
    every ``(a, b, gen)``, one constraint at a time: the kernel of the one
    row ``sum_i c_i*(rows[i][a] - rows[i][b]) + gen*s = 0`` gives the
    coefficients ``c`` of the combinations that meet the congruence."""
    rows, _ = reference_hermite_rows(rows, width, ring)
    for a, b, gen in constraints:
        constraint = tuple(r[a] - r[b] for r in rows) + (gen,)
        combos = []
        for vec in reference_kernel_basis([constraint], len(rows) + 1, ring):
            combo = (ring.zero(),) * width
            for c, row in zip(vec, rows):
                combo = tuple(acc + c * x for acc, x in zip(combo, row))
            combos.append(combo)
        rows, _ = reference_hermite_rows(combos, width, ring)
    return rows


def reference_component_rows(g, order):
    """Canonical rows, in ``order`` coordinates, of the spline module of a
    graph over ``Int`` or ``Q[x]``, connected or not: the identity matrix
    cut down by every edge congruence."""
    ring = g.ring
    col = {v: i for i, v in enumerate(order)}
    width = len(order)
    identity = [
        tuple(ring.one() if j == i else ring.zero() for j in range(width)) for i in range(width)
    ]
    constraints = [(col[e.a], col[e.b], gen) for e, gen in zip(g.edges, g.edge_generators)]
    return reference_impose(identity, width, constraints, ring)
