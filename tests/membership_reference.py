"""The plain reference ``membership`` must match coefficient for coefficient.

``reference_membership`` back-substitutes along the triangular basis and
decides only after the last row: after every pivot it divides the residual
and the running denominator by their gcd content, and it then checks the
residual and every denominator in a final pass.
"""

from gsplines.modules import (
    MembershipResult,
    _lift_rows,
    _lift_value,
    _require_euclidean_ring,
    work_ring,
)
from gsplines.rings import (
    coerce,
    gcd,
    is_unit,
    is_zero_element,
    normalized_associate,
    rational_quotient,
    unit_part,
)


def _strip_inverted(x, ring):
    for f in ring.inverted:
        while True:
            q, r = divmod(x, f.element)
            if r:
                break
            x = q
    return x


def _gcd_content(values, ring):
    acc = None
    for x in values:
        if not x:
            continue
        acc = x if acc is None else gcd(acc, x, ring)
    return acc


def reference_membership(module, s):
    g = module.graph
    ring = work_ring(g.ring)
    _require_euclidean_ring(ring, "membership testing")
    order = module.vertex_order
    rows = _lift_rows(module.rows, g.ring)
    num_den = []
    residual = [_lift_value(s.values[v], g.ring) for v in order]
    denominator = ring.one()
    for row, p in zip(rows, module.pivots):
        a = residual[p]
        if not a:
            num_den.append((ring.zero(), ring.one()))
            continue
        den_raw = denominator * row[p]
        gcd_val = gcd(a, den_raw, ring)
        num = a // gcd_val
        den = den_raw // gcd_val
        num = num * rational_quotient(1, unit_part(den, ring))
        den = normalized_associate(den, ring)
        num_den.append((num, den))
        residual = [
            x * den - num * denominator * y for x, y in zip(residual, row)
        ]
        denominator = denominator * den
        content = _gcd_content(residual + [denominator], ring)
        if content is not None and not is_unit(content, ring):
            residual = [x // content for x in residual]
            denominator = denominator // content
    if any(not is_zero_element(coerce(x, g.ring)) for x in residual):
        return MembershipResult(False)
    coefficients = []
    for num, den in num_den:
        stripped = _strip_inverted(den, ring)
        if not is_unit(stripped, ring):
            return MembershipResult(False)
        if is_unit(den, ring):
            num, den = num // den, ring.one()
        coefficients.append((coerce(num, g.ring), coerce(den, g.ring)))
    return MembershipResult(True, tuple(coefficients))
