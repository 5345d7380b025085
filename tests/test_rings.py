import itertools
import operator
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gsplines import (
    FactoredElement,
    Poly,
    Residue,
    RingDescriptor,
    TooLarge,
    UnsupportedRing,
    exact_divide,
    extended_gcd,
    factor_integer,
    format_element,
    gcd,
    is_associate,
    is_prime,
    make_factor,
    normalized_associate,
    parse_element,
    trivializes,
)
from gsplines.rings import (
    _monic_cubic_has_integer_root,
    _poly_irreducible_low_degree,
    _term_repr,
    canonical_key,
    format_poly,
    poly_divmod,
    rational_quotient,
    unit_part,
)
from conftest import QX, QXY, ZZ, int_label
import poly_reference as ref


def qx(text):
    return parse_element(text, QX)


def qxy(text):
    return parse_element(text, QXY)


# --- gcd -------------------------------------------------------------------


def test_gcd_integers():
    assert gcd(6, 10, ZZ) == 2
    assert gcd(0, 0, ZZ) == 0
    assert gcd(0, 7, ZZ) == 7
    assert gcd(-6, 10, ZZ) == 2


def test_gcd_univariate_polynomials():
    # Oracle: expand the products independently and take sympy's gcd.
    x = sympy.Symbol("x")
    a_s = sympy.expand((x - 3) * (x - 5))
    b_s = sympy.expand((x - 3) * (x - 7))
    assert sympy.gcd(a_s, b_s) == x - 3
    a = qx("(x-3)*(x-5)")
    b = qx("(x-3)*(x-7)")
    assert gcd(a, b, QX) == qx("x-3")


def test_gcd_unsupported_rings():
    with pytest.raises(UnsupportedRing):
        gcd(qxy("x"), qxy("y"), QXY)
    with pytest.raises(UnsupportedRing):
        r = RingDescriptor.residues(6)
        gcd(Residue(2, 6), Residue(4, 6), r)


def test_gcd_divides_both_and_bezout_holds():
    rng = random.Random(7)
    for _ in range(50):
        a = rng.randrange(-200, 200)
        b = rng.randrange(-200, 200)
        g = gcd(a, b, ZZ)
        if g:
            assert exact_divide(a, g, ZZ) is not None
            assert exact_divide(b, g, ZZ) is not None
        gg, u, v = extended_gcd(a, b, ZZ)
        assert gg == g
        assert u * a + v * b == gg


def test_extended_gcd_examples():
    g, u, v = extended_gcd(3, 5, ZZ)
    assert g == 1 and u * 3 + v * 5 == 1
    assert extended_gcd(0, 7, ZZ) == (7, 0, 1)
    g, u, v = extended_gcd(qx("x-1"), qx("x+1"), QX)
    assert g == qx("1")
    assert u * qx("x-1") + v * qx("x+1") == qx("1")
    assert (u, v) == (Poly.const(1, Fraction(-1, 2)), Poly.const(1, Fraction(1, 2)))


def test_extended_gcd_random_polynomials():
    rng = random.Random(11)
    for _ in range(25):
        a = Poly(1, {(i,): rng.randrange(-4, 5) for i in range(rng.randrange(1, 4))})
        b = Poly(1, {(i,): rng.randrange(-4, 5) for i in range(rng.randrange(1, 4))})
        g, u, v = extended_gcd(a, b, QX)
        assert u * a + v * b == g
        assert g == gcd(a, b, QX)


def test_extended_gcd_keeps_ring_types():
    # A zero operand ends the Euclidean loop at once; the results are still
    # ring elements, not the scalars that normalize them.
    two_x_minus_two = qx("2*x-2")
    assert extended_gcd(two_x_minus_two, 0, QX) == (qx("x-1"), Poly.const(1, Fraction(1, 2)), qx("0"))
    assert extended_gcd(0, two_x_minus_two, QX) == (qx("x-1"), qx("0"), Poly.const(1, Fraction(1, 2)))
    for a, b in ((two_x_minus_two, 0), (0, two_x_minus_two), (0, 0), (qx("x"), qx("x+1"))):
        assert all(type(t) is Poly for t in extended_gcd(a, b, QX))
    assert extended_gcd(-4, 0, ZZ) == (4, -1, 0)
    assert extended_gcd(0, -4, ZZ) == (4, 0, -1)
    assert extended_gcd(0, 0, ZZ) == (0, 1, 0)
    assert all(type(t) is int for t in extended_gcd(-4, 6, ZZ))


# --- exact division ---------------------------------------------------------


def test_exact_divide_examples():
    assert exact_divide(qx("x^2-9"), qx("x-3"), QX) == qx("x+3")
    # Oracle: sympy division of the expanded product.
    x, y = sympy.symbols("x y")
    prod = sympy.expand((x - 3) * ((x - 10) ** 2 + y**2 - 1))
    q, r = sympy.div(prod, (x - 10) ** 2 + y**2 - 1, x, y)
    assert (q, r) == (x - 3, 0)
    a = qxy("(x-3)*((x-10)^2+y^2-1)")
    b = qxy("(x-10)^2+y^2-1")
    assert exact_divide(a, b, QXY) == qxy("x-3")
    assert exact_divide(qxy("x+1"), qxy("y"), QXY) is None


def test_exact_divide_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        exact_divide(4, 0, ZZ)
    with pytest.raises(ZeroDivisionError):
        exact_divide(qx("x"), qx("0"), QX)


def test_exact_divide_roundtrip_random():
    rng = random.Random(3)
    for _ in range(40):
        nvars = rng.choice([1, 2])
        ring = QX if nvars == 1 else QXY
        def rand_poly():
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                e = tuple(rng.randrange(0, 3) for _ in range(nvars))
                terms[e] = Fraction(rng.randrange(-5, 6) or 1, rng.randrange(1, 4))
            return Poly(nvars, terms)
        a, b = rand_poly(), rand_poly()
        if b.is_zero:
            continue
        assert exact_divide(a * b, b, ring) == a
    for _ in range(40):
        a = rng.randrange(-50, 50)
        b = rng.randrange(1, 50)
        assert exact_divide(a * b, b, ZZ) == a


def test_exact_divide_residues():
    r6 = RingDescriptor.residues(6)
    q = exact_divide(Residue(4, 6), Residue(2, 6), r6)
    assert q is not None and q * Residue(2, 6) == Residue(4, 6)
    assert exact_divide(Residue(3, 6), Residue(2, 6), r6) is None


# --- arithmetic keeps the canonical form ---------------------------------------


def test_poly_divmod_needs_one_variable_across_both_operands():
    with pytest.raises(UnsupportedRing):
        poly_divmod(qxy("x"), qxy("y"))
    with pytest.raises(UnsupportedRing):
        poly_divmod(qxy("x*y"), qxy("x"))
    assert poly_divmod(qxy("y^2+1"), qxy("y-2")) == (qxy("y+2"), qxy("5"))
    assert poly_divmod(qxy("3"), qxy("2")) == (qxy("3/2"), qxy("0"))


def test_poly_divmod_returns_a_lower_degree_dividend_itself():
    low, high = qx("3*x+1"), qx("x^2-2")
    q, r = divmod(low, high)
    assert q.is_zero and q.nvars == 1
    assert r is low
    q, r = poly_divmod(qxy("y+1"), qxy("y^2"))
    assert q.is_zero and r == qxy("y+1")
    # The one-variable check still comes first.
    with pytest.raises(UnsupportedRing):
        poly_divmod(qxy("x"), qxy("y^2"))


def test_division_operators_coerce_scalars_and_check_operands():
    p = qx("3*x^2+x-1")
    half = Poly.const(1, Fraction(1, 2))
    assert divmod(p, 2) == poly_divmod(p, qx("2")) == (p * half, qx("0"))
    assert p // Fraction(1, 2) == p * 2
    assert p % qx("x") == qx("-1")
    assert p // qx("x") == qx("3*x+1")
    for op in (divmod, operator.floordiv, operator.mod):
        with pytest.raises(ZeroDivisionError):
            op(p, 0)
        with pytest.raises(ZeroDivisionError):
            op(p, qx("0"))
        with pytest.raises(UnsupportedRing):
            op(qxy("x"), qxy("y"))
        with pytest.raises(UnsupportedRing):
            op(qxy("x*y"), qxy("x"))
        with pytest.raises(TypeError):
            op(p, 0.5)


SYMBOLS = sympy.symbols("x y")
SMALL_Q = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def exponent_vectors(nvars, var=None):
    """Exponent vectors of total degree <= 4, in the variable ``var`` only if given."""
    vectors = [e for e in itertools.product(range(5), repeat=nvars) if sum(e) <= 4]
    return [e for e in vectors if var is None or sum(e) == e[var]]


def polys(nvars, var=None):
    exps = st.sampled_from(exponent_vectors(nvars, var))
    return st.dictionaries(exps, SMALL_Q, max_size=6).map(lambda t: Poly(nvars, t))


@st.composite
def poly_pairs(draw, univariate=False):
    nvars = draw(st.sampled_from([1, 2]))
    var = draw(st.integers(0, nvars - 1)) if univariate else None
    return draw(polys(nvars, var)), draw(polys(nvars, var))


def assert_canonical(p):
    """``p`` is what the validating constructor makes of its own terms, and
    every coefficient is an ``int`` or a ``Fraction`` with denominator > 1."""
    assert all(type(c) is int or type(c) is Fraction and c.denominator > 1 for _, c in p.terms)
    assert repr(p) == repr(Poly(p.nvars, dict(p.terms)))


def to_sympy(p):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(v**k for v, k in zip(SYMBOLS, e)))
         for e, c in p.terms),
        sympy.Integer(0),
    )


@settings(max_examples=150, deadline=None)
@given(poly_pairs())
def test_ring_operations_keep_canonical_form(pair):
    a, b = pair
    n = a.nvars
    results = {
        "+": (a + b, Poly(n, a.terms + b.terms)),
        "-": (a - b, Poly(n, a.terms + tuple((e, -c) for e, c in b.terms))),
        "neg": (-a, Poly(n, [(e, -c) for e, c in a.terms])),
        "*": (a * b, Poly(n, [(tuple(map(sum, zip(e1, e2))), c1 * c2)
                              for e1, c1 in a.terms for e2, c2 in b.terms])),
        "scalar": (a * Fraction(-2, 3), Poly(n, [(e, c * Fraction(-2, 3)) for e, c in a.terms])),
    }
    for op, (got, expected) in results.items():
        assert_canonical(got)
        assert got == expected, op


# Zero, small ints, and Fractions down to negative ones with denominators
# up to 7 (a Fraction with denominator 1 among them).
SCALARS = st.one_of(st.just(0), st.integers(-5, 5), SMALL_Q,
                    st.fractions(min_value=-9, max_value=0, max_denominator=7))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(polys), SCALARS)
def test_scalar_product_matches_product_with_the_constant(p, c):
    # ``*`` scales by an int or a Fraction without building a constant
    # polynomial; the product with that constant is the reference.
    expected = p * Poly.const(p.nvars, c)
    for got in (p * c, c * p):
        assert_canonical(got)
        assert got.terms == expected.terms
        assert repr(got) == repr(expected)
        assert got == expected
        assert hash(got) == hash(expected)


@settings(max_examples=150, deadline=None)
@given(poly_pairs(univariate=True))
def test_poly_divmod_invariants_and_sympy(pair):
    a, b = pair
    if b.is_zero:
        return
    q, r = poly_divmod(a, b)
    assert_canonical(q)
    assert_canonical(r)
    assert a == q * b + r
    assert r.degree < b.degree
    var = max(a.used_variables() + b.used_variables(), default=0)
    sq, sr = sympy.div(to_sympy(a), to_sympy(b), SYMBOLS[var], domain="QQ")
    assert sympy.expand(sq - to_sympy(q)) == 0
    assert sympy.expand(sr - to_sympy(r)) == 0
    exact = exact_divide(a * b, b, RingDescriptor.rational_polynomials(*"xy"[: a.nvars]))
    assert exact == a
    assert_canonical(exact)


@settings(max_examples=150, deadline=None)
@given(poly_pairs(univariate=True))
def test_division_operators_agree_with_poly_divmod(pair):
    a, b = pair
    if b.is_zero:
        return
    q, r = poly_divmod(a, b)
    assert divmod(a, b) == (q, r)
    assert a // b == q
    assert a % b == r


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(polys), st.integers(0, 6))
def test_poly_pow_matches_repeated_multiplication(p, k):
    expected = Poly.const(p.nvars, 1)
    for _ in range(k):
        expected = expected * p
    got = p**k
    assert_canonical(got)
    assert got == expected


@settings(max_examples=150, deadline=None)
@given(poly_pairs())
def test_poly_hash_is_cached_and_agrees_with_rebuilt(pair):
    a, b = pair
    for p in (a, a + b, a * b, -b):
        rebuilt = Poly(p.nvars, dict(p.terms))
        fresh = Poly(p.nvars, dict(p.terms))
        assert not hasattr(fresh, "_hash")
        first = hash(fresh)
        assert fresh._hash == first  # kept on first use
        assert hash(fresh) == first == hash(rebuilt) == hash(p) == hash(p)
        assert {p: 1}[rebuilt] == 1


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(polys))
def test_canonical_key_and_format_spell_coefficients_as_fractions(p):
    """Factor order and text do not depend on integral coefficients being
    stored as ints."""
    as_fractions = tuple((e, Fraction(c)) for e, c in p.terms)
    assert canonical_key(p) == (p.degree, 0, repr(as_fractions))
    assert repr(p) == f"Poly({p.nvars}, {list(p.terms)!r})"
    assert format_poly(p, "xy") == format_poly(Poly._of(p.nvars, as_fractions), "xy")


@settings(max_examples=150, deadline=None)
@given(poly_pairs())
def test_format_poly_keeps_one_spelling_per_variable_list(pair):
    """A stored spelling is the text of a freshly built equal polynomial, in
    the variables asked for, and changes nothing else about the polynomial."""
    a, b = pair
    first, second = ("x", "y")[: a.nvars], ("s", "t")[: a.nvars]
    for p in (a, a + b, a * b, -b):
        fresh = Poly(p.nvars, dict(p.terms))
        key, text = hash(fresh), repr(fresh)
        want_first = format_poly(Poly(p.nvars, dict(p.terms)), first)
        want_second = format_poly(Poly(p.nvars, dict(p.terms)), second)
        assert format_poly(p, first) == want_first
        assert format_poly(p, first) == want_first
        assert format_poly(p, tuple(list(first))) == want_first  # equal, not the same
        assert format_poly(p, second) == want_second
        assert format_poly(p, first) == want_first
        assert format_poly(p, list(second)) == want_second
        assert p == fresh and fresh == p
        assert hash(p) == key and repr(p) == text
        assert canonical_key(p) == canonical_key(Poly(p.nvars, dict(p.terms)))
        assert {fresh: 1}[p] == 1


def test_format_poly_spells_a_polynomial_once_per_variable_list(monkeypatch):
    import gsplines.rings as rings

    spelled = []
    speller = rings._spell_poly
    monkeypatch.setattr(rings, "_spell_poly", lambda p, v: spelled.append(v) or speller(p, v))
    p = qxy("x^2+y^2-20*x+99")
    for _ in range(3):
        assert format_element(p, QXY) == "x^2 + y^2 - 20*x + 99"
    assert spelled == [QXY.variables]
    assert format_poly(p, ("u", "v")) == "u^2 + v^2 - 20*u + 99"
    assert format_poly(p, ("x", "y")) == "x^2 + y^2 - 20*x + 99"
    assert format_poly(p, ("x", "y")) == "x^2 + y^2 - 20*x + 99"
    assert spelled == [QXY.variables, ("u", "v"), ("x", "y")]
    # the zero of Q[x] is one object for every univariate ring
    zero = qx("x") * 0
    assert zero is parse_element("t", RingDescriptor("PolyQ", variables=("t",))) * 0
    assert format_poly(zero, ("x",)) == format_poly(zero, ("t",)) == "0"


def test_canonical_key_and_repr_spell_coefficients_of_any_size():
    # Python's repr(int) stops at 4,300 digits by default.
    big = 10**5000 + 1
    p = Poly(1, {(1,): 1, (0,): Fraction(-big, 3)})
    big_text = "1" + "0" * 4999 + "1"
    assert canonical_key(p) == (
        1,
        0,
        f"(((1,), Fraction(1, 1)), ((0,), Fraction(-{big_text}, 3)))",
    )
    assert repr(p) == f"Poly(1, [((1,), 1), ((0,), Fraction(-{big_text}, 3))])"
    assert canonical_key(Poly(1, {(0,): big}))[2] == f"(((0,), Fraction({big_text}, 1)),)"
    assert repr(Poly(1, {(0,): -big})) == f"Poly(1, [((0,), -{big_text})])"


def _fraction_spelling(p):
    """The reference key: every coefficient made a ``Fraction``, then
    spelled by ``_term_repr``."""
    spelled = [_term_repr((e, Fraction(c))) for e, c in p.terms]
    tail = "," if len(spelled) == 1 else ""
    return (p.degree, 0, f"({', '.join(spelled)}{tail})")


BIG = 10**4400 + 7  # past Python's 4,300-digit str(int) limit


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([1, 2]).flatmap(polys),
    st.sampled_from([1, -1, 3, BIG, -BIG, Fraction(1, BIG), Fraction(BIG, 3)]),
)
def test_canonical_key_spells_each_coefficient_as_its_fraction(p, scale):
    q = Poly(p.nvars, {e: c * scale for e, c in p.terms})
    assert canonical_key(q) == _fraction_spelling(q)


def test_integral_coefficients_are_ints():
    assert Poly(1, {(1,): Fraction(6, 2)}).terms == (((1,), 3),)
    assert repr(qx("x-3")) == "Poly(1, [((1,), 1), ((0,), -3)])"
    assert type(Poly.const(1, Fraction(6, 2)).constant_value()) is int
    assert type((qx("1/2*x + 1/3") * 6).leading()[1]) is int
    assert rational_quotient(6, -3) == -2 and type(rational_quotient(6, -3)) is int
    assert rational_quotient(3, 6) == Fraction(1, 2)
    assert type(rational_quotient(Fraction(3, 2), Fraction(1, 2))) is int


# Coefficients for the univariate reference: small rationals, and integers
# and fractions past 600 digits, of either sign.  The long ones are built
# from two short draws, which hypothesis makes far faster than one long one.
HUGE = st.builds(lambda hi, lo: hi * 10**600 + lo, st.integers(1, 10**9), st.integers(0, 10**9))
SIGN = st.sampled_from([1, -1])
COEFFICIENTS = st.one_of(
    SMALL_Q,
    st.integers(-(10**6), 10**6),
    st.builds(operator.mul, HUGE, SIGN),
    st.builds(lambda m, s, d: Fraction(s * m, d), HUGE, SIGN, st.one_of(st.integers(2, 10**6), HUGE)),
)


@st.composite
def univariate_polys(draw):
    """Zero, or a polynomial of degree <= 5 whose leading coefficient is any
    nonzero draw (negative and non-monic ones included)."""
    if draw(st.integers(0, 9)) == 0:
        return Poly(1, {})
    deg = draw(st.integers(0, 5))
    lower = draw(st.dictionaries(st.integers(0, deg).map(lambda d: (d,)), COEFFICIENTS, max_size=deg))
    lower[(deg,)] = draw(COEFFICIENTS.filter(bool))
    return Poly(1, lower)


def rebuilt(p, how):
    """``p`` built another way: by the parser, or as an arithmetic result."""
    if how == "parser":
        return parse_element(format_poly(p, "x"), QX)
    if how == "arithmetic":
        return -(-p)
    return p


def assert_same_poly(got, want, op):
    assert type(got) is Poly and got.nvars == want.nvars, op
    assert got.terms == want.terms, op
    assert repr(got) == repr(want), op
    assert canonical_key(got) == canonical_key(want), op
    assert format_poly(got, "x") == format_poly(want, "x"), op
    assert got == want and hash(got) == hash(want), op


@settings(max_examples=100, deadline=None)
@given(univariate_polys(), univariate_polys(), COEFFICIENTS.filter(bool),
       st.sampled_from(["constructor", "parser", "arithmetic"]))
def test_univariate_arithmetic_matches_the_sparse_reference(a, b, c, how):
    """The integer-vector arithmetic of ``Q[x]`` gives what the sparse
    ``Fraction`` arithmetic gave, term for term and character for character."""
    a, b = rebuilt(a, how), rebuilt(b, how)
    results = [
        ("+", a + b, ref.plus(a, b)),
        ("-", a - b, ref.plus(a, b, -1)),
        ("*", a * b, ref.times(a, b)),
        ("neg", -a, ref.neg(a)),
        ("scalar", a * c, ref.scaled(a, Fraction(c))),
        ("normalized_associate", normalized_associate(a, QX), ref.normalized_associate(a)),
    ]
    if b:
        q, r = ref.divmod_(a, b)
        results += [("divmod q", divmod(a, b)[0], q), ("divmod r", divmod(a, b)[1], r),
                    ("//", a // b, q), ("%", a % b, r)]
    for name, got, want in zip(("g", "u", "v"), extended_gcd(a, b, QX), ref.extended_gcd(a, b)):
        results.append((f"extended_gcd {name}", got, want))
    for op, got, want in results:
        assert_same_poly(got, want, op)
    u = unit_part(a, QX)
    assert u == ref.unit_part(a) and type(u) is Fraction


@settings(max_examples=100, deadline=None)
@given(univariate_polys())
def test_a_polynomial_is_one_key_however_it_was_built(p):
    """Factor sets, inverted elements and spectrum fibers key on ``Poly``:
    the constructor's, the parser's and arithmetic's polynomial are one key."""
    forms = [p, Poly(1, dict(p.terms)), rebuilt(p, "parser"), rebuilt(p, "arithmetic"),
             (p + qx("x^2")) - qx("x^2"), p * 1]
    hashed_first = rebuilt(p, "arithmetic")
    assert hash(hashed_first) == hash(p)  # before its terms were read
    for x in forms:
        assert all(x == y and hash(x) == hash(y) for y in forms)
    assert len(set(forms)) == 1 and len(set(reversed(forms))) == 1
    keyed = {x: i for i, x in enumerate(forms)}
    assert len(keyed) == 1 and all(keyed[x] == len(forms) - 1 for x in forms)
    assert p != p + 1 and p + 1 not in set(forms)


def test_factors_match_however_their_polynomial_was_built():
    forms = [qx("x-3"), Poly(1, {(1,): 1, (0,): -3}), qx("x") - 3, normalized_associate(qx("2*x-6"), QX),
             divmod(qx("x^2-9"), qx("x+3"))[0]]
    ring = QX.localize([make_factor(forms[0], QX)])
    for f in forms:
        label = FactoredElement((make_factor(f, QX, 2),))
        assert trivializes(label, ring)
        assert label.without(set(ring.inverted_elements())).is_unit_ideal()
        assert f in ring.inverted_elements() and f in {make_factor(g, QX).element for g in forms}


def test_float_coefficients_are_rejected():
    with pytest.raises(TypeError):
        Poly(1, {(1,): 0.1})
    with pytest.raises(TypeError):
        Poly(1, [((0,), 1), ((1,), 2.0)])
    with pytest.raises(TypeError):
        Poly.const(1, 0.5)
    with pytest.raises(TypeError):
        qx("x") * 0.5


# --- associates -------------------------------------------------------------


def test_is_associate():
    assert is_associate(-5, 5, ZZ)
    assert is_associate(qx("2*x-6"), qx("x-3"), QX)
    assert not is_associate(qx("x-3"), qx("x-5"), QX)
    assert is_associate(0, 0, ZZ)
    assert not is_associate(0, 3, ZZ)


def test_normalized_associate():
    assert normalized_associate(-6, ZZ) == 6
    assert normalized_associate(qx("2*x-6"), QX) == qx("x-3")
    r6 = RingDescriptor.residues(6)
    assert normalized_associate(Residue(4, 6), r6) == Residue(2, 6)


# --- factors and factored generators ----------------------------------------


def test_make_factor_integer_primality():
    assert make_factor(5, ZZ).irreducibility == "Verified"
    assert make_factor(-7, ZZ).element == 7
    with pytest.raises(ValueError):
        make_factor(6, ZZ)
    with pytest.raises(ValueError):
        make_factor(1, ZZ)
    with pytest.raises(ValueError):
        make_factor(0, ZZ)


def test_make_factor_polynomials():
    assert make_factor(qx("x-3"), QX).irreducibility == "Verified"
    assert make_factor(qx("x^2+1"), QX).irreducibility == "Verified"
    with pytest.raises(ValueError):
        make_factor(qx("x^2-1"), QX)  # (x-1)(x+1)
    with pytest.raises(ValueError):
        make_factor(qx("x^2-2*x+1"), QX)  # (x-1)^2, square discriminant
    # cubics are checked by their rational roots; x^3-2 has none
    assert make_factor(qx("x^3-2"), QX).irreducibility == "Verified"
    # degree > 3 and multivariate factors are declared, not checked
    assert make_factor(qx("x^4+1"), QX).irreducibility == "Declared"
    assert make_factor(qxy("(x-10)^2+y^2-1"), QXY).irreducibility == "Declared"
    # normalization to the monic associate
    assert make_factor(qx("2*x-6"), QX).element == qx("x-3")


def test_make_factor_cubics_by_rational_root():
    for text in ("x^3-1", "x^3+x", "2*x^3-3*x^2+1", "x^3-1/4*x", "(x-1/3)*(x^2+x+1)",
                 "(x-1000003)*(x^2+1)", "(x+7/5)^3"):
        with pytest.raises(ValueError, match="reducible"):
            make_factor(qx(text), QX)
    for text in ("x^3-2", "x^3+x+1", "2*x^3-3*x+5/7", "x^3-1000003", "y^3-3*y+1"):
        ring = RingDescriptor.rational_polynomials("y") if "y" in text else QX
        f = make_factor(parse_element(text, ring), ring)
        assert f.irreducibility == "Verified"


def test_monic_cubic_integer_roots_match_exhaustive_search():
    for b, c, d in itertools.product(range(-5, 6), repeat=3):
        expected = any(((y + b) * y + c) * y + d == 0 for y in range(-40, 41))
        assert _monic_cubic_has_integer_root(b, c, d) == expected, (b, c, d)


def test_random_cubics_agree_with_sympy_irreducibility():
    x = sympy.Symbol("x")
    rng = random.Random(17)
    for _ in range(300):
        coeffs = [Fraction(rng.randrange(-60, 61), rng.randrange(1, 6)) for _ in range(3)]
        if rng.random() < 0.5:  # plant a rational root r
            r = Fraction(rng.randrange(-20, 21), rng.randrange(1, 6))
            q1, q0 = coeffs[:2]
            coeffs = [-r * q0, q0 - r * q1, q1 - r]
        p = Poly(1, {(3,): 1, **{(i,): c for i, c in enumerate(coeffs)}})
        expr = x**3 + sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(coeffs))
        assert _poly_irreducible_low_degree(p) == sympy.Poly(expr, x, domain="QQ").is_irreducible


def test_is_prime_and_factor_integer():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)
    assert factor_integer(360) == ((2, 3), (3, 2), (5, 1))
    assert factor_integer(97) == ((97, 1),)
    with pytest.raises(ValueError):
        factor_integer(0)
    # Past the engine's limits: a composite cofactor beyond trial division,
    # and a primality question beyond the deterministic bases' bound.
    with pytest.raises(TooLarge, match="cannot factor residual cofactor"):
        factor_integer((10**12 + 39) * (10**12 + 61))
    with pytest.raises(TooLarge, match="primality testing is supported only below"):
        is_prime(10**25 + 13)


def test_factored_element_invariants():
    with pytest.raises(ValueError):
        FactoredElement((make_factor(3, ZZ), make_factor(3, ZZ)))
    with pytest.raises(ValueError):
        FactoredElement((make_factor(3, ZZ),), is_zero=True)
    label = int_label(12)
    assert label.expand(ZZ) == 12
    assert int_label(0).expand(ZZ) == 0


# --- trivializes ------------------------------------------------------------


def test_trivializes_examples():
    label = int_label(6)  # factors {2, 3}
    loc3 = ZZ.localize([make_factor(3, ZZ)])
    loc23 = ZZ.localize([make_factor(2, ZZ), make_factor(3, ZZ)])
    assert not trivializes(label, loc3)
    assert trivializes(label, loc23)
    assert not trivializes(FactoredElement.zero(), loc23)


def test_trivializes_monotone_in_inverted_set():
    rng = random.Random(5)
    primes = [2, 3, 5, 7, 11]
    for _ in range(60):
        label = int_label(
            1
            if not rng.randrange(5)
            else rng.choice(primes) * rng.choice(primes) * rng.choice([1, rng.choice(primes)])
        )
        small = rng.sample(primes, rng.randrange(0, 4))
        extra = rng.sample([p for p in primes if p not in small], rng.randrange(0, 2))
        ring_small = ZZ.localize([make_factor(p, ZZ) for p in small])
        ring_big = ZZ.localize([make_factor(p, ZZ) for p in small + extra])
        if trivializes(label, ring_small):
            assert trivializes(label, ring_big)


# --- formatting of factored labels ------------------------------------------


def test_format_factored():
    from gsplines import format_factored

    assert format_factored(int_label(12), ZZ) == "2^2*3"
    assert format_factored(FactoredElement.zero(), ZZ) == "0"
    label = FactoredElement((make_factor(qx("x-3"), QX, 2),))
    assert format_factored(label, QX) == "(x - 3)^2"
