import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gsplines import (
    ParseError,
    Poly,
    Residue,
    RingDescriptor,
    UnknownVariable,
    format_element,
    parse_element,
)
from conftest import FACTOR_TEXTS, QX, QXY, ZZ
from parsing_reference import reference_parse_element


def test_parse_circle_times_line():
    p = parse_element("(x-3)*((x-10)^2+y^2-1)", QXY)
    # Leading term under graded lex is x^3.
    assert p.leading() == ((3, 0), Fraction(1))
    # Oracle: independent symbolic expansion.
    x, y = sympy.symbols("x y")
    expected = sympy.Poly(sympy.expand((x - 3) * ((x - 10) ** 2 + y**2 - 1)), x, y)
    got = {tuple(m): Fraction(int(c)) for m, c in zip(expected.monoms(), expected.coeffs())}
    assert dict(p.terms) == got


def test_parse_zero_and_plain_terms():
    assert parse_element("0", QXY).is_zero
    p = parse_element("3*x^2*y - 1/2", QXY)
    assert dict(p.terms) == {(2, 1): Fraction(3), (0, 0): Fraction(-1, 2)}


def test_parse_integer_rings():
    assert parse_element("-7", ZZ) == -7
    assert parse_element("2^5", ZZ) == 32
    assert parse_element("(2+3)*4", ZZ) == 20
    with pytest.raises(ParseError):
        parse_element("5/2", ZZ)
    r7 = RingDescriptor.residues(7)
    assert parse_element("9", r7) == Residue(2, 7)
    assert parse_element("-1", r7) == Residue(6, 7)


def test_whitespace_insensitive():
    a = parse_element("( x - 3 ) * ( x - 5 )", QX)
    b = parse_element("(x-3)*(x-5)", QX)
    assert a == b


def test_adjacency_is_not_multiplication():
    with pytest.raises(ParseError):
        parse_element("2x", QX)
    with pytest.raises(ParseError):
        parse_element("x y", QXY)


def test_error_positions_and_unknown_variables():
    with pytest.raises(ParseError) as err:
        parse_element("x + ", QX)
    assert err.value.position == 4
    with pytest.raises(UnknownVariable):
        parse_element("x + z", QXY)
    with pytest.raises(UnknownVariable):
        parse_element("x", ZZ)
    with pytest.raises(ParseError):
        parse_element("x ^ y", QXY)  # exponents are naturals
    with pytest.raises(ParseError):
        parse_element("(x+1", QX)
    with pytest.raises(ParseError):
        parse_element("x $ 2", QX)


def test_non_ascii_digits_are_unexpected_characters():
    # Naturals are ASCII digits: '²' is a digit to str.isdigit but not to
    # int(), and '٣' (Arabic-Indic three) is a decimal digit to both.
    with pytest.raises(ParseError) as err:
        parse_element("x^²", QX)
    assert err.value.position == 2
    assert "unexpected character '²'" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_element("٣", ZZ)
    assert err.value.position == 0
    assert "unexpected character '٣'" in str(err.value)


def test_unary_minus_binds_before_exponent():
    # Per the grammar '-' is part of base, so -x^2 squares the negation.
    assert parse_element("-x^2", QX) == parse_element("x^2", QX)
    assert parse_element("-(x^2)", QX) == -parse_element("x^2", QX)
    assert parse_element("-1*x^2", QX) == -parse_element("x^2", QX)
    assert parse_element("-x^3", QX) == -parse_element("x^3", QX)


def random_canonical_poly(rng, ring):
    """A random canonical sparse polynomial: <= 6 terms, exponents <= 5,
    numerators/denominators <= 100."""
    terms = {}
    for _ in range(rng.randrange(0, 7)):
        exps = tuple(rng.randrange(0, 6) for _ in range(ring.nvars))
        num = rng.randrange(-100, 101)
        den = rng.randrange(1, 101)
        if num:
            terms[exps] = Fraction(num, den)
    return Poly(ring.nvars, terms)


@pytest.mark.parametrize("ring", [QX, QXY, RingDescriptor.rational_polynomials("a", "b", "c")])
def test_format_parse_roundtrip(ring):
    rng = random.Random(42)
    for _ in range(300):
        p = random_canonical_poly(rng, ring)
        text = format_element(p, ring)
        assert parse_element(text, ring) == p


def test_integers_of_any_size_round_trip():
    # Python caps str(int) and int(str) at a process-wide digit count, 4,300
    # by default; integers past it still format, parse and round-trip.
    big = 10**5000
    assert format_element(big, ZZ) == "1" + "0" * 5000
    assert format_element(1 - big, ZZ) == "-" + "9" * 5000
    assert parse_element("-" + "0" * 5000 + "5", ZZ) == -5
    assert parse_element("2*" + "9" * 5000 + "+1", ZZ) == 2 * big - 1
    odd = 7**12000 + 1
    for ring in (ZZ, RingDescriptor.residues(odd + big), QX):
        for k in (odd, -odd, big):
            x = ring.from_int(k)
            assert parse_element(format_element(x, ring), ring) == x
    p = Poly(2, {(1, 0): Fraction(odd, 3**9000), (0, 1): Fraction(-1, odd), (0, 0): big})
    assert parse_element(format_element(p, QXY), QXY) == p
    # A fraction that is no integer is refused as a parse error, with its
    # value spelled out at any size.
    with pytest.raises(ParseError) as err:
        parse_element("1" + "0" * 5000 + "/3", ZZ)
    assert str(err.value) == (
        "1" + "0" * 5000 + "/3 is not an integer at position 0 (expected an integer value)"
    )


def test_parse_format_canonicalizes():
    text = "x*x + x^2 + 0*y"
    p = parse_element(text, QXY)
    assert format_element(p, QXY) == "2*x^2"


# --- the term-dict evaluator against the Poly-arithmetic reference ---------------


def outcome(parse, text, ring):
    """What parsing ``text`` gives: the element and its repr (so ``Fraction``
    and ``int`` coefficients differ), or the error's type, message and
    position."""
    try:
        value = parse(text, ring)
    except ParseError as err:
        return type(err), str(err), err.position
    return value, repr(value)


def expressions(ring):
    """Random expression strings over ``+ - * ^ ( )``, unary ``-``,
    rationals and the ring's variables, with optional spaces."""
    leaves = st.one_of(
        st.integers(0, 20).map(str),
        st.tuples(st.integers(0, 20), st.integers(1, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
        st.sampled_from(ring.variables or ("1",)),
    )

    def grow(sub):
        return st.one_of(
            st.tuples(sub, st.sampled_from(["+", " - ", "*", " * "]), sub).map("".join),
            st.tuples(sub, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
            sub.map(lambda a: f"-{a}"),
            sub.map(lambda a: f"( {a} )"),
        )

    return st.recursive(leaves, grow, max_leaves=8)


Z12 = RingDescriptor.residues(12)
EXPRESSIONS = {ring: expressions(ring) for ring in (ZZ, QX, QXY, Z12)}

# Texts at the edge of the integer-literal shortcut: only ``-?[0-9]+`` with
# nothing around it skips the grammar.  The 700-digit ones are read in
# pieces, where a stray newline would shift every digit before it.
LITERAL_TEXTS = (
    "-0", "+5", "--5", " 7 ", "7\n", "٣", "-٣", "1٣", "007", "-007", "-", "1_0", "\t5",
    "8" * 700, "-" + "9" * 700, "1" * 700 + "\n",
)
LITERALS = st.one_of(
    st.integers(-(10**40), 10**40).map(str),
    st.tuples(st.sampled_from(["", "-"]), st.integers(1, 4), st.integers(0, 10**9)).map(
        lambda t: t[0] + "0" * t[1] + str(t[2])
    ),
    st.tuples(
        st.sampled_from(["", " ", "\n"]),
        st.sampled_from(["", "-", "+", "--", "- "]),
        st.sampled_from(["0", "7", "42", "٣"]),
        st.sampled_from(["", " ", "\n"]),
    ).map("".join),
    st.sampled_from(LITERAL_TEXTS),
)


@st.composite
def malformed(draw, ring):
    """A valid expression truncated, with a stray symbol inserted, or with a
    bad exponent appended."""
    text = draw(EXPRESSIONS[ring])
    how = draw(st.sampled_from(["truncate", "stray", "exponent"]))
    if how == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if how == "stray":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from("$^*)(/+-.²٣Ⅻ z")) + text[at:]
    return text + "^" + draw(st.sampled_from(["", "y", "-1", "1/2", "(2)", "²", "x"]))


@pytest.mark.parametrize("ring", [ZZ, QX, QXY, Z12])
def test_factor_texts_match_reference(ring):
    for text in FACTOR_TEXTS.get(ring, ()) + LITERAL_TEXTS:
        assert outcome(parse_element, text, ring) == outcome(reference_parse_element, text, ring)


@pytest.mark.parametrize("ring", [ZZ, QX, QXY, Z12])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parser_matches_reference(ring, data):
    for strategy in (EXPRESSIONS[ring], malformed(ring), LITERALS):
        text = data.draw(strategy)
        assert outcome(parse_element, text, ring) == outcome(reference_parse_element, text, ring)
