"""Recursive-descent parser for polynomial and integer expressions.

Grammar (whitespace-insensitive; adjacency never implies multiplication):

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' natural)?
    base     := rational | identifier | '(' expr ')' | '-' base
    rational := natural ('/' natural)?

A natural is a run of ASCII digits ``0-9`` of any length; any other digit
character is an unexpected character.  Identifiers must name declared ring
variables.  Integer and residue rings use the same grammar restricted to
constant expressions.

A text that is exactly an integer literal, ``-?[0-9]+`` with nothing
around it, skips the grammar and becomes ``ring.from_int`` of its value,
which is what the grammar gives for it in every ring.  Any other text, a
padded, ``+``-signed or non-ASCII one included, takes the grammar.

This module is the grammar only: it evaluates on term dicts ``{exponent
tuple: int | Fraction}`` with the term kernel of ``rings``, as ``Poly``
does, and builds the one ``Poly`` at the end: one sort, which also stores
integral coefficients as ints.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .errors import ParseError, UnknownVariable
from .rings import (
    INT,
    MODINT,
    Poly,
    Residue,
    RingDescriptor,
    RingElement,
    _from_decimal,
    _sorted_terms,
    _terms_power,
    _terms_product,
    _terms_sum,
    _to_decimal,
    rational_quotient,
)

_INTEGER = re.compile(r"-?[0-9]+")
_TOKEN = re.compile(r"(?P<NUM>[0-9]+)|(?P<IDENT>[^\W\d]\w*)|(?P<OP>[-+*^()/])|(?P<SKIP>\s+)|(?P<BAD>.)", re.S)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, tok, at = m.lastgroup, m.group(), m.start()
        if kind == "SKIP":
            continue
        # \w also admits numeric characters such as '²' as an identifier's
        # first character; an identifier starts with a letter or '_'.
        if kind == "BAD" or kind == "IDENT" and not (tok[0].isalpha() or tok[0] == "_"):
            raise ParseError(f"unexpected character {tok[0]!r}", at)
        tokens.append((kind, tok, at))
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ring: RingDescriptor):
        self.text = text
        self.ring = ring
        self.nvars = ring.nvars
        self.one = (0,) * ring.nvars
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
        return Poly._of(self.nvars, _sorted_terms(value))

    def expr(self) -> dict:
        value = self.term()
        while True:
            kind, tok, _ = self.current
            if kind == "OP" and tok in "+-":
                self._advance()
                value = _terms_sum(value, self.term(), 1 if tok == "+" else -1)
            else:
                return value

    def term(self) -> dict:
        value = self.factor()
        while True:
            kind, tok, _ = self.current
            if kind == "OP" and tok == "*":
                self._advance()
                value = _terms_product(value, self.factor())
            else:
                return value

    def factor(self) -> dict:
        value = self.base()
        kind, tok, _ = self.current
        if kind == "OP" and tok == "^":
            self._advance()
            return _terms_power(value, self._natural(), self.nvars)
        return value

    def base(self) -> dict:
        kind, tok, at = self.current
        if kind == "NUM":
            return {self.one: self._rational()}
        if kind == "IDENT":
            self._advance()
            idx = self.var_index.get(tok)
            if idx is None:
                if self.ring.kind in (INT, MODINT):
                    raise UnknownVariable(f"the ring has no variables, found {tok!r}", at)
                raise UnknownVariable(
                    f"{tok!r} is not one of the ring variables {list(self.ring.variables)}", at
                )
            return {tuple(int(i == idx) for i in range(self.nvars)): 1}
        if kind == "OP" and tok == "(":
            self._advance()
            value = self.expr()
            self._expect_op(")")
            return value
        if kind == "OP" and tok == "-":
            self._advance()
            return {e: -c for e, c in self.base().items()}
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
        return _from_decimal(tok)

    def _rational(self):
        num = self._natural()
        kind, tok, _ = self.current
        if kind == "OP" and tok == "/":
            at = self.current[2]
            self._advance()
            den = self._natural()
            if den == 0:
                raise ParseError("division by zero in rational literal", at)
            return rational_quotient(num, den)
        return num


def parse_element(text: str, ring: RingDescriptor) -> RingElement:
    """Parse ``text`` into a canonical element of ``ring``.

    Round trip: parsing a canonically formatted element returns that
    element; formatting a parsed expression canonicalizes it.  An integer
    literal is read directly, without the grammar.
    """
    if _INTEGER.fullmatch(text):
        return ring.from_int(_from_decimal(text))
    poly = _Parser(text, ring).parse()
    if ring.kind == INT or ring.kind == MODINT:
        value = poly.constant_value()
        if value.denominator != 1:
            spelled = f"{_to_decimal(value.numerator)}/{_to_decimal(value.denominator)}"
            raise ParseError(f"{spelled} is not an integer", 0, expected="an integer value")
        if ring.kind == INT:
            return int(value)
        return Residue(int(value), ring.modulus)
    return poly
