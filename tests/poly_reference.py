"""Reference polynomial arithmetic: sparse term lists with ``Fraction``
coefficients, as ``Poly`` computed before univariate polynomials ran on
integer vectors with one denominator.

An oracle for the tests only.  Each function reads ``terms`` and builds its
result through ``Poly._of`` from terms in canonical form, so it shares no
arithmetic with the univariate vector form under test.  ``divmod_`` is the
classical division loop on dense ``Fraction`` coefficient lists.
"""

from fractions import Fraction

from gsplines.rings import Poly


def _integral(c):
    return c.numerator if c.denominator == 1 else c


def _sorted_terms(acc: dict):
    return tuple(
        sorted(
            ((e, c if type(c) is int else _integral(c)) for e, c in acc.items() if c),
            key=lambda t: (sum(t[0]), t[0]),
            reverse=True,
        )
    )


def quotient(a, b):
    """``a / b`` for canonical coefficients, canonical itself."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _integral(a / b)


def const(nvars, c):
    return Poly._of(nvars, (((0,) * nvars, c),) if c else ())


def plus(a, b, sign=1):
    if not b.terms:
        return a
    if not a.terms and sign > 0:
        return b
    merged = dict(a.terms)
    for e, c in b.terms:
        if sign < 0:
            c = -c
        merged[e] = merged[e] + c if e in merged else c
    return Poly._of(a.nvars, _sorted_terms(merged))


def neg(a):
    return Poly._of(a.nvars, tuple((e, -c) for e, c in a.terms))


def scaled(a, c):
    if c == 1:
        return a
    return Poly._of(a.nvars, tuple((e, _integral(Fraction(k) * c)) for e, k in a.terms))


def times(a, b):
    if not a.terms or not b.terms:
        return Poly._of(a.nvars, ())
    if sum(b.terms[0][0]) == 0:
        return scaled(a, b.terms[0][1])
    if sum(a.terms[0][0]) == 0:
        return scaled(b, a.terms[0][1])
    acc: dict = {}
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            e = tuple(x + y for x, y in zip(e1, e2))
            acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
    return Poly._of(a.nvars, _sorted_terms(acc))


def degree(p):
    return sum(p.terms[0][0]) if p.terms else -1


def _dense(p, var):
    if not p.terms:
        return []
    out = [0] * (p.terms[0][0][var] + 1)
    for exps, c in p.terms:
        out[exps[var]] = c
    return out


def _from_dense(coeffs, nvars, var):
    before, after = (0,) * var, (0,) * (nvars - var - 1)
    return Poly._of(
        nvars,
        tuple(
            (before + (d,) + after, _integral(Fraction(coeffs[d])))
            for d in range(len(coeffs) - 1, -1, -1)
            if coeffs[d]
        ),
    )


def divmod_(a, b):
    """Division with remainder of polynomials in at most the one variable
    ``var`` both use."""
    used = {i for p in (a, b) for e, _ in p.terms for i, k in enumerate(e) if k}
    assert len(used) <= 1 and b.terms
    var = used.pop() if used else 0
    if degree(a) < degree(b):
        return Poly._of(a.nvars, ()), a
    r = _dense(a, var)
    bc = _dense(b, var)
    db = len(bc) - 1
    q = [0] * (len(r) - db)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db]
        if not c:
            continue
        c = quotient(c, bc[db])
        q[k] = c
        for j in range(db):
            if bc[j]:
                r[k + j] -= c * bc[j]
    return _from_dense(q, a.nvars, var), _from_dense(r[:db], a.nvars, var)


def unit_part(x):
    return Fraction(x.terms[0][1]) if x.terms else Fraction(1)


def normalized_associate(x):
    return scaled(x, quotient(1, x.terms[0][1])) if x.terms else x


def extended_gcd(a, b):
    """``(g, u, v)`` with ``u*a + v*b = g`` and ``g`` monic (or zero)."""
    n = a.nvars
    old_r, r = a, b
    old_u, u = const(n, 1), const(n, 0)
    old_v, v = const(n, 0), const(n, 1)
    while r.terms:
        q, rem = divmod_(old_r, r)
        old_r, r = r, rem
        old_u, u = u, plus(old_u, times(q, u), -1)
        old_v, v = v, plus(old_v, times(q, v), -1)
    c = const(n, quotient(1, unit_part(old_r)))
    return times(old_r, c), times(old_u, c), times(old_v, c)
