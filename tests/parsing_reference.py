"""The parser's plain reference: the same grammar, evaluated with the
reference polynomial arithmetic of ``poly_reference``.

Every ``+`` and ``-`` is ``poly_reference.plus``, every ``*`` is
``poly_reference.times``, and ``^`` is this module's own loop of repeated
squaring on ``times``; every constant starts as a ``Fraction``.
``gsplines.parse_element`` evaluates with the term kernel of
``gsplines.rings``, which ``Poly``'s own several-variable operators and its
``**`` also run, so the reference uses none of them.  On every input both
must return equal elements or raise the same error, with the same message
and position.  Naturals are ASCII digits here too, so non-ASCII digits are
unexpected characters in both.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from gsplines.errors import ParseError, UnknownVariable
from gsplines.rings import INT, MODINT, Poly, Residue, RingDescriptor, RingElement
from poly_reference import neg, plus, times

_SYMBOLS = "+-*^()/"
_DIGITS = "0123456789"


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("NUM", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], i))
            i = j
            continue
        if c in _SYMBOLS:
            tokens.append(("OP", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, ring: RingDescriptor):
        self.text = text
        self.ring = ring
        self.nvars = ring.nvars
        self.var_index = {v: i for i, v in enumerate(ring.variables)}
        self.tokens = _tokenize(text)
        self.pos = 0

    @property
    def current(self):
        return self.tokens[self.pos]

    def _advance(self):
        self.pos += 1

    def _expect_op(self, op: str):
        kind, tok, at = self.current
        if kind != "OP" or tok != op:
            raise ParseError(f"unexpected token {tok!r}" if tok else "unexpected end of input", at, expected=repr(op))
        self._advance()

    def parse(self) -> Poly:
        value = self.expr()
        kind, tok, at = self.current
        if kind != "END":
            raise ParseError(f"unexpected token {tok!r}", at, expected="end of input")
        return value

    def expr(self) -> Poly:
        value = self.term()
        while True:
            kind, tok, _ = self.current
            if kind == "OP" and tok in "+-":
                self._advance()
                rhs = self.term()
                value = plus(value, rhs, 1 if tok == "+" else -1)
            else:
                return value

    def term(self) -> Poly:
        value = self.factor()
        while True:
            kind, tok, _ = self.current
            if kind == "OP" and tok == "*":
                self._advance()
                value = times(value, self.factor())
            else:
                return value

    def factor(self) -> Poly:
        value = self.base()
        kind, tok, _ = self.current
        if kind == "OP" and tok == "^":
            self._advance()
            k, result = self._natural(), Poly.const(self.nvars, 1)
            while k:
                if k & 1:
                    result = times(result, value)
                k >>= 1
                if k:
                    value = times(value, value)
            return result
        return value

    def base(self) -> Poly:
        kind, tok, at = self.current
        if kind == "NUM":
            return Poly.const(self.nvars, self._rational())
        if kind == "IDENT":
            self._advance()
            idx = self.var_index.get(tok)
            if idx is None:
                if self.ring.kind in (INT, MODINT):
                    raise UnknownVariable(f"the ring has no variables, found {tok!r}", at)
                raise UnknownVariable(
                    f"{tok!r} is not one of the ring variables {list(self.ring.variables)}", at
                )
            return Poly(self.nvars, {tuple(int(i == idx) for i in range(self.nvars)): 1})
        if kind == "OP" and tok == "(":
            self._advance()
            value = self.expr()
            self._expect_op(")")
            return value
        if kind == "OP" and tok == "-":
            self._advance()
            return neg(self.base())
        raise ParseError(
            f"unexpected token {tok!r}" if tok else "unexpected end of input",
            at,
            expected="a number, variable, '(' or '-'",
        )

    def _natural(self) -> int:
        kind, tok, at = self.current
        if kind != "NUM":
            raise ParseError(
                f"unexpected token {tok!r}" if tok else "unexpected end of input",
                at,
                expected="a natural number",
            )
        self._advance()
        return int(tok)

    def _rational(self) -> Fraction:
        num = self._natural()
        kind, tok, _ = self.current
        if kind == "OP" and tok == "/":
            at = self.current[2]
            self._advance()
            den = self._natural()
            if den == 0:
                raise ParseError("division by zero in rational literal", at)
            return Fraction(num, den)
        return Fraction(num)


def reference_parse_element(text: str, ring: RingDescriptor) -> RingElement:
    """What ``gsplines.parse_element(text, ring)`` must return or raise."""
    poly = _Parser(text, ring).parse()
    if ring.kind == INT or ring.kind == MODINT:
        value = poly.constant_value()
        if value.denominator != 1:
            raise ParseError(f"{value} is not an integer", 0, expected="an integer value")
        if ring.kind == INT:
            return int(value)
        return Residue(int(value), ring.modulus)
    return poly
