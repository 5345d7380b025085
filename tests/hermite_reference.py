"""A reference row Hermite form: the plain algorithm ``hermite_rows`` must
match entry for entry.

Every column rescans every remaining row for a nonzero entry, and every pair
of carrying rows is combined by the extended-gcd transform, with no
shortcut for divisible entries.
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
