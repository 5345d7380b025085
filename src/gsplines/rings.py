"""Exact arithmetic over the supported coefficient rings.

Three base rings are supported: arbitrary-precision integers, residues
modulo a fixed ``n >= 2``, and sparse multivariate polynomials with exact
rational coefficients.  Integer and polynomial rings may additionally carry
a finite list of inverted irreducible factors; this models working over the
localization at the multiplicative set generated by those factors.

Canonical forms used throughout:

* integers keep their sign; the normalized associate is the absolute value,
* residues are stored in ``[0, n)``; the normalized associate of a nonzero
  residue ``a`` is ``gcd(a, n)`` (the canonical generator of the ideal),
* polynomials are sparse term lists, sorted under the graded
  lexicographic order induced by the declared variable order; the
  normalized associate is the monic scalar multiple.  A coefficient is an
  ``int`` when it is integral and a ``Fraction`` with denominator > 1
  otherwise, and every division that makes a coefficient goes through
  ``rational_quotient``, which never lets two ints meet ``/``.  Float
  coefficients are rejected.  A univariate polynomial computes on one
  integer vector and one denominator instead, ``(numerators, den)`` with
  ``den > 0`` and ``gcd(den, *numerators) == 1``, and derives its terms
  from them when they are read.

Univariate polynomials divide with remainder through ``divmod``, ``//``
and ``%``, as ints do, by integer pseudo-division, so the Euclidean
algorithms (``gcd``, ``extended_gcd``, ``exact_divide``) and the Hermite
core of ``modules`` run one loop for ``Int`` and ``Q[x]``.

Sparse term arithmetic lives once, in the term kernel (``_terms_sum``,
``_terms_product``, ``_terms_power``): ``Poly``'s several-variable ``+ -
*``, its ``**`` and the parser all compute there.  ``lcm_factors`` is the
one lcm of factor lists.

All values are immutable and all functions are pure, so concurrent use
needs no coordination.  The one mutable part is the factor-text memo a
``RingDescriptor`` carries (``parsed_factors``): a text parsed by two
threads at once is stored twice with equal values.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import zip_longest
from typing import Container, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import InvalidValue, MixedRings, TooLarge, UnsupportedRing

INT = "Int"
MODINT = "ModInt"
POLYQ = "PolyQ"

Exponents = Tuple[int, ...]
Coefficient = Union[int, Fraction]


@dataclass(frozen=True)
class Residue:
    """A residue class modulo a fixed ``modulus >= 2``."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        object.__setattr__(self, "value", self.value % self.modulus)

    def _check(self, other: "Residue") -> None:
        if not isinstance(other, Residue) or other.modulus != self.modulus:
            raise MixedRings(f"residue arithmetic requires matching moduli, got {other!r}")

    def __add__(self, other):
        self._check(other)
        return Residue(self.value + other.value, self.modulus)

    def __sub__(self, other):
        self._check(other)
        return Residue(self.value - other.value, self.modulus)

    def __mul__(self, other):
        self._check(other)
        return Residue(self.value * other.value, self.modulus)

    def __neg__(self):
        return Residue(-self.value, self.modulus)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative residue powers are not supported")
        return Residue(pow(self.value, k, self.modulus), self.modulus)

    def __repr__(self):
        return f"Residue({self.value} mod {self.modulus})"


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Canonical form: ``terms`` is a tuple of ``(exponent_vector, coefficient)``
    pairs in strictly descending graded-lexicographic order, every exponent
    vector a tuple of ``nvars`` non-negative ints, every coefficient nonzero
    and either an ``int`` or a ``Fraction`` with denominator > 1 (never a
    ``Fraction`` with denominator 1); the zero polynomial is the empty
    tuple.  ``int`` and ``Fraction`` compare and hash alike; ``repr``
    prints integral coefficients as ints.  The constructor validates and
    canonicalizes arbitrary input and rejects ``float`` coefficients.
    Multivariate ``+ - *`` and every ``**`` run the term kernel; their
    results are canonical by construction and go through ``Poly._of``,
    which stores a term tuple as given.  Canonical terms make ``==`` and
    ``hash`` decide equality of polynomials; the hash is computed on first
    use and kept in ``_hash``, and the sort key of ``canonical_key``
    likewise in ``_key``.  ``format_poly`` keeps the text it spells in
    ``_text``, as the pair ``(variables, text)``: the same polynomial
    printed again in the same variables is not spelled again, and a second
    variable list replaces the pair with its own.  ``==``, ``hash``,
    ``repr`` and ``canonical_key`` never read ``_text``.  ``_hash`` and
    ``_key`` are pure functions of the polynomial, and ``_text`` is one
    pair that names the variables its text is in, each stored in one
    write; so two threads that fill a slot at once each read either
    nothing or a whole value right for them, and the polynomial stays
    immutable in effect.

    A univariate polynomial (``nvars == 1``) computes on a second canonical
    form instead, the pair ``(numerators, den)`` kept in ``_vec``:
    ``numerators`` is a tuple of ints, lowest degree first, with no trailing
    zero (empty for zero), and ``den`` is an int > 0 with
    ``gcd(den, *numerators) == 1`` (1 for zero), so the polynomial is
    ``sum(numerators[d] * x**d) / den`` and each polynomial has one pair.
    ``+``, ``-``, ``*``, negation, scaling, ``leading``, ``degree``,
    ``is_constant``, truth and ``==`` run on the pair, on ints only, and
    each result is made canonical by one ``math.gcd`` (``_canonical_vector``)
    and built by ``_univariate``.  A univariate polynomial built from terms
    (the constructor, the parser, ``Poly._of``) derives its pair at once.
    ``terms`` stays the public view: an arithmetic result derives it on
    first read and keeps it in ``_terms``.  ``hash`` is the hash of
    ``terms`` for every polynomial.

    ``divmod``, ``//`` and ``%`` are ``poly_divmod``, with an ``int`` or
    ``Fraction`` operand taken as a constant; like ``poly_divmod`` they need
    the two operands to use one variable between them.  ``*`` scales by an
    ``int`` or ``Fraction`` operand directly, without building a constant.
    """

    __slots__ = ("nvars", "_terms", "_vec", "_hash", "_key", "_text")

    def __init__(self, nvars: int, terms: Union[Mapping, Iterable] = ()):
        acc: dict = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for exps, coeff in items:
            e = tuple(int(x) for x in exps)
            if len(e) != nvars or any(x < 0 for x in e):
                raise ValueError(f"bad exponent vector {e} for {nvars} variable(s)")
            c = _coefficient(coeff)
            if c:
                acc[e] = acc[e] + c if e in acc else c
        self._store(nvars, _sorted_terms(acc))

    @classmethod
    def _of(cls, nvars: int, terms: Tuple[Tuple[Exponents, Coefficient], ...]) -> "Poly":
        """A polynomial whose ``terms`` are already in canonical form."""
        p = object.__new__(cls)
        p._store(nvars, terms)
        return p

    def _store(self, nvars: int, terms) -> None:
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", terms)
        if nvars == 1:
            object.__setattr__(self, "_vec", _vector_of_terms(terms, 0))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    @property
    def terms(self) -> Tuple[Tuple[Exponents, Coefficient], ...]:
        try:
            return self._terms
        except AttributeError:  # a univariate arithmetic result
            terms = _terms_of_vector(*self._vec, 1, 0)
            object.__setattr__(self, "_terms", terms)
            return terms

    @classmethod
    def const(cls, nvars: int, c) -> "Poly":
        c = _coefficient(c)
        if nvars == 1:
            return _univariate(((c.numerator,), c.denominator) if c else ((), 1))
        return cls._of(nvars, (((0,) * nvars, c),) if c else ())

    @property
    def is_zero(self) -> bool:
        return not self

    def __bool__(self) -> bool:
        """False exactly for the zero polynomial, as for ``int`` and ``Fraction``."""
        if self.nvars == 1:
            return bool(self._vec[0])
        return bool(self._terms)

    @property
    def is_constant(self) -> bool:
        if self.nvars == 1:
            return len(self._vec[0]) <= 1
        return not self._terms or sum(self._terms[0][0]) == 0

    def constant_value(self) -> Coefficient:
        if not self:
            return 0
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.leading()[1]

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if self.nvars == 1:
            return len(self._vec[0]) - 1
        return sum(self._terms[0][0]) if self._terms else -1

    def leading(self) -> Tuple[Exponents, Coefficient]:
        if not self:
            raise ValueError("zero polynomial has no leading term")
        if self.nvars == 1:
            nums, den = self._vec
            return (len(nums) - 1,), rational_quotient(nums[-1], den)
        return self._terms[0]

    def used_variables(self) -> Tuple[int, ...]:
        used = set()
        for exps, _ in self.terms:
            used.update(i for i, e in enumerate(exps) if e)
        return tuple(sorted(used))

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise MixedRings("polynomials over different variable lists")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.nvars, other)
        return None

    def _plus(self, other: "Poly", sign: int) -> "Poly":
        if self.nvars == 1:
            (a, da), (b, db) = self._vec, other._vec
            if not b:
                return self
            if not a and sign > 0:
                return other
            if da != db:
                g = math.gcd(da, db)
                a = [x * (db // g) for x in a]
                b = [y * (da // g) for y in b]
                da = da // g * db
            if sign < 0:
                b = [-y for y in b]
            return _univariate(
                _canonical_vector([x + y for x, y in zip_longest(a, b, fillvalue=0)], da)
            )
        if not other._terms:
            return self
        if not self._terms and sign > 0:
            return other
        merged = _terms_sum(dict(self._terms), dict(other._terms), sign)
        return Poly._of(self.nvars, _sorted_terms(merged))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        if self.nvars == 1:
            nums, den = self._vec
            return _univariate((tuple(-x for x in nums), den))
        return Poly._of(self.nvars, tuple((e, -c) for e, c in self._terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def _scaled(self, c: Coefficient) -> "Poly":
        # A nonzero rational keeps every coefficient nonzero and the order.
        if c == 1:
            return self
        if self.nvars == 1:
            nums, den = self._vec
            k = c.numerator
            return _univariate(_canonical_vector([x * k for x in nums], den * c.denominator))
        return Poly._of(
            self.nvars,
            tuple((e, v if type(v := k * c) is int else _integral(v)) for e, k in self._terms),
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coefficient(other)
            return self._scaled(c) if c else _zero(self.nvars)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.nvars == 1:
            (a, da), (b, db) = self._vec, other._vec
            if not a:
                return self
            if not b:
                return other
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        out[j] += x * y
            return _univariate(_canonical_vector(out, da * db))
        if not self._terms:
            return self
        if not other._terms:
            return other
        if other.is_constant:
            return self._scaled(other._terms[0][1])
        if self.is_constant:
            return other._scaled(self._terms[0][1])
        product = _terms_product(dict(self._terms), dict(other._terms))
        return Poly._of(self.nvars, _sorted_terms(product))

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else poly_divmod(self, other)

    def __floordiv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else poly_divmod(self, other)[0]

    def __mod__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else poly_divmod(self, other)[1]

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial powers are not supported")
        if k == 1:
            return self
        return Poly._of(self.nvars, _sorted_terms(_terms_power(dict(self.terms), k, self.nvars)))

    def __eq__(self, other):
        if not isinstance(other, Poly) or self.nvars != other.nvars:
            return False
        if self.nvars == 1:
            return self._vec == other._vec
        return self._terms == other._terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.nvars, self.terms))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return f"Poly({self.nvars}, [{', '.join(map(_term_repr, self.terms))}])"


# Slot writers for ``_univariate`` and ``format_poly``: ``Poly.__setattr__``
# refuses every write.
_set_nvars = Poly.nvars.__set__
_set_vec = Poly._vec.__set__
_set_text = Poly._text.__set__


def _univariate(vec: Tuple[Tuple[int, ...], int]) -> Poly:
    """The univariate polynomial of a canonical ``(numerators, den)`` pair."""
    p = object.__new__(Poly)
    _set_nvars(p, 1)
    _set_vec(p, vec)
    return p


_UNIVARIATE_ZERO = _univariate(((), 1))


def _zero(nvars: int) -> Poly:
    """The zero polynomial; one shared object in one variable."""
    return _UNIVARIATE_ZERO if nvars == 1 else Poly._of(nvars, ())


def _term_repr(term) -> str:
    """``repr(term)`` for a coefficient of any size."""
    e, c = term
    if type(c) is int:
        return f"({e!r}, {_to_decimal(c)})"
    return f"({e!r}, Fraction({_to_decimal(c.numerator)}, {_to_decimal(c.denominator)}))"


def _term_key(term):
    exps = term[0]
    return (sum(exps), exps)


def _sorted_terms(acc: dict) -> Tuple[Tuple[Exponents, Coefficient], ...]:
    """The nonzero terms of an exponent -> rational dict, grlex-descending,
    with canonical coefficients."""
    return tuple(
        sorted(
            ((e, c if type(c) is int else _integral(c)) for e, c in acc.items() if c),
            key=_term_key,
            reverse=True,
        )
    )


# The sparse term kernel on exponent -> coefficient dicts.  A result may
# hold zero or non-canonical coefficients until ``_sorted_terms`` reads it.
Terms = Dict[Exponents, Coefficient]


def _terms_sum(a: Terms, b: Terms, sign: int = 1) -> Terms:
    """``a + b``, or ``a - b`` for a negative ``sign``."""
    out = dict(a)
    for e, c in b.items():
        if sign < 0:
            c = -c
        out[e] = out[e] + c if e in out else c
    return out


def _terms_product(a: Terms, b: Terms) -> Terms:
    """``a * b``."""
    out: Terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(operator.add, e1, e2))
            c = c1 * c2
            out[e] = out[e] + c if e in out else c
    return out


def _terms_power(a: Terms, k: int, nvars: int) -> Terms:
    """``a ** k`` for ``k >= 0`` by repeated squaring."""
    result: Terms = {(0,) * nvars: 1}
    while k:
        if k & 1:
            result = _terms_product(result, a)
        k >>= 1
        if k:
            a = _terms_product(a, a)
    return result


def _integral(c: Coefficient) -> Coefficient:
    """``c`` as an ``int`` when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _coefficient(c) -> Coefficient:
    """Validate an exact rational and return its canonical form."""
    if type(c) is int:
        return c
    if type(c) is Fraction:
        return _integral(c)
    if isinstance(c, float):
        raise TypeError(f"polynomial coefficients must be exact, not the float {c!r}")
    return _integral(Fraction(c))


def rational_quotient(a: Coefficient, b: Coefficient) -> Coefficient:
    """``a / b`` for canonical coefficients, itself canonical.

    Two ints never meet ``/``, which would give a float.
    """
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _integral(a / b)


RingElement = Union[int, Residue, Poly]


def _canonical_vector(nums: List[int], den: int) -> Tuple[Tuple[int, ...], int]:
    """The canonical ``(numerators, den)`` pair of ``sum(nums[d]*x**d) / den``
    for ``den > 0``: trailing zeros dropped, then one gcd taken out."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return (), 1
    g = math.gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple(x // g for x in nums), den // g


def _vector_of_terms(terms, var: int) -> Tuple[Tuple[int, ...], int]:
    """The ``(numerators, den)`` pair of canonical terms in at most the
    variable ``var``; ``den`` is the lcm of the coefficients' denominators,
    so the pair is canonical."""
    if not terms:
        return (), 1
    den = math.lcm(*(c.denominator for _, c in terms))
    nums = [0] * (terms[0][0][var] + 1)
    for exps, c in terms:
        nums[exps[var]] = c.numerator * (den // c.denominator)
    return tuple(nums), den


def _terms_of_vector(nums: Sequence[int], den: int, nvars: int, var: int):
    """The canonical terms of the pair ``(nums, den)`` in the variable ``var``
    of ``nvars``."""
    before, after = (0,) * var, (0,) * (nvars - var - 1)
    return tuple(
        (before + (d,) + after, rational_quotient(c, den))
        for d in range(len(nums) - 1, -1, -1)
        if (c := nums[d])
    )


def poly_divmod(a: Poly, b: Poly) -> Tuple[Poly, Poly]:
    """Univariate division with remainder; ``deg r < deg b``.

    Integer pseudo-division on the ``(numerators, den)`` pairs of the one
    variable the operands use.  With ``lead`` the leading numerator of ``b``
    and ``k = deg a - deg b + 1``, the numerators ``A`` of ``a`` are scaled
    by ``s = lead**k`` once; every quotient coefficient is then an exact
    integer division by ``lead``, and ``s*A = Q*B + R``.  So ``a = A/da``
    and ``b = B/db`` give the quotient ``Q*db / (s*da)`` and the remainder
    ``R / (s*da)``.  A dividend of lower degree than ``b`` is returned as
    the remainder itself, with the zero quotient (one shared object in one
    variable).
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if a.nvars != b.nvars:
        raise MixedRings("polynomials over different variable lists")
    nvars, var = a.nvars, 0
    if nvars == 1:
        (A, da), (B, db) = a._vec, b._vec
    else:
        used = set(a.used_variables()) | set(b.used_variables())
        if len(used) > 1:
            raise UnsupportedRing("division with remainder needs univariate operands")
        var = used.pop() if used else 0
        (A, da), (B, db) = _vector_of_terms(a.terms, var), _vector_of_terms(b.terms, var)
    if len(A) < len(B):
        return _zero(nvars), a
    deg_b, lead = len(B) - 1, B[-1]
    k = len(A) - deg_b
    s = lead**k
    r = [x * s for x in A]
    q = [0] * k
    for i in range(k - 1, -1, -1):
        c = r[i + deg_b]
        if c:
            c //= lead
            q[i] = c
            for j in range(deg_b):
                r[i + j] -= c * B[j]
    sign = 1 if s > 0 else -1  # a negative lead and odd k; den stays > 0
    den = s * sign * da
    quotient = _canonical_vector([x * sign * db for x in q], den)
    remainder = _canonical_vector([x * sign for x in r[:deg_b]], den)
    if nvars == 1:
        return _univariate(quotient), _univariate(remainder)
    return (
        Poly._of(nvars, _terms_of_vector(*quotient, nvars, var)),
        Poly._of(nvars, _terms_of_vector(*remainder, nvars, var)),
    )


# ---------------------------------------------------------------------------
# ring descriptors


@dataclass(frozen=True)
class RingDescriptor:
    """The coefficient ring: its kind plus an optional inverted-factor list.

    ``inverted`` holds canonical, pairwise non-associate irreducible factors
    that are declared invertible; a nonempty list means "work over the
    localization at the multiplicative set they generate".

    ``parsed_factors`` is the memo of ``formats``' factor-text parser for
    this ring object: text -> its ``Factor``s.  It is a field that the
    constructor sets to an empty dict and that ``==``, ``hash`` and
    ``repr`` leave out, so it lasts exactly as long as the ring object; a
    ring that ``localize`` or ``base`` builds starts with an empty one.  A
    field, unlike a ``cached_property``, never materializes the instance
    ``__dict__``, which would slow every later attribute read of the ring.
    ``_inverted_elements``, the set of the inverted factors' elements, is
    such a field too, set by the constructor when ``inverted`` is nonempty.
    """

    kind: str
    modulus: Optional[int] = None
    variables: Tuple[str, ...] = ()
    inverted: Tuple["Factor", ...] = ()
    parsed_factors: Dict[str, Tuple["Factor", ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    _inverted_elements: FrozenSet[RingElement] = field(
        default=frozenset(), init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if self.kind not in (INT, MODINT, POLYQ):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == MODINT:
            if self.modulus is None or self.modulus < 2:
                raise InvalidValue("ModInt requires a modulus >= 2")
            if self.inverted:
                raise ValueError("residue rings cannot be localized")
        if self.kind == POLYQ:
            if not self.variables:
                raise ValueError("PolyQ requires at least one variable")
            if len(set(self.variables)) != len(self.variables):
                raise InvalidValue("variable names must be distinct")
            for name in self.variables:
                if not name.isidentifier():
                    raise InvalidValue(f"bad variable name {name!r}")
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "inverted", tuple(self.inverted))
        if self.inverted:
            elements = frozenset(f.element for f in self.inverted)
            object.__setattr__(self, "_inverted_elements", elements)

    # constructors -----------------------------------------------------
    @classmethod
    def integers(cls) -> "RingDescriptor":
        return cls(INT)

    @classmethod
    def residues(cls, n: int) -> "RingDescriptor":
        return cls(MODINT, modulus=n)

    @classmethod
    def rational_polynomials(cls, *variables: str) -> "RingDescriptor":
        return cls(POLYQ, variables=tuple(variables))

    # elements ---------------------------------------------------------
    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> RingElement:
        return self.from_int(0)

    def one(self) -> RingElement:
        return self.from_int(1)

    def from_int(self, k: int) -> RingElement:
        if self.kind == INT:
            return int(k)
        if self.kind == MODINT:
            return Residue(k, self.modulus)
        return Poly.const(self.nvars, k)

    def base(self) -> "RingDescriptor":
        """The ring with no inverted factors (the pre-localization ring)."""
        return replace(self, inverted=()) if self.inverted else self

    def localize(self, factors: Iterable["Factor"]) -> "RingDescriptor":
        if self.kind == MODINT:
            raise UnsupportedRing("residue rings cannot be localized")
        merged = {f.element: f for f in self.inverted}
        for f in factors:
            check_element(f.element, self.base())
            merged.setdefault(f.element, Factor(f.element, 1, f.irreducibility))
        ordered = tuple(sorted(merged.values(), key=_factor_key))
        return replace(self, inverted=ordered)

    def inverted_elements(self) -> FrozenSet[RingElement]:
        return self._inverted_elements


def check_element(x: RingElement, ring: RingDescriptor) -> RingElement:
    """Validate that ``x`` is an element of ``ring``; return it unchanged."""
    if ring.kind == INT:
        if isinstance(x, bool) or not isinstance(x, int):
            raise MixedRings(f"{x!r} is not an integer ring element")
    elif ring.kind == MODINT:
        if not isinstance(x, Residue) or x.modulus != ring.modulus:
            raise MixedRings(f"{x!r} is not a residue modulo {ring.modulus}")
    else:
        if not isinstance(x, Poly) or x.nvars != ring.nvars:
            raise MixedRings(f"{x!r} is not a polynomial in {ring.variables}")
    return x


def coerce(x, ring: RingDescriptor) -> RingElement:
    """Accept plain ints as a convenience and map them into ``ring``."""
    if isinstance(x, int) and not isinstance(x, bool) and ring.kind != INT:
        return ring.from_int(x)
    return check_element(x, ring)


def is_zero_element(x: RingElement) -> bool:
    if isinstance(x, Poly):
        return x.is_zero
    if isinstance(x, Residue):
        return x.value == 0
    return x == 0


def is_unit(x: RingElement, ring: RingDescriptor) -> bool:
    """Unit test in the *base* ring (inverted factors are not consulted);
    ``ring`` is ``Int`` or a polynomial ring."""
    if ring.kind == INT:
        return x in (1, -1)
    return (not x.is_zero) and x.is_constant


def unit_part(x: RingElement, ring: RingDescriptor):
    """The unit ``u`` with ``x = u * normalized_associate(x)``; 1 for zero.
    ``ring`` is ``Int`` or a polynomial ring."""
    if is_zero_element(x):
        return 1 if ring.kind != POLYQ else Fraction(1)
    if ring.kind == INT:
        return 1 if x > 0 else -1
    return Fraction(x.leading()[1])


def normalized_associate(x: RingElement, ring: RingDescriptor) -> RingElement:
    """The canonical generator of the principal ideal of ``x``."""
    if is_zero_element(x):
        return x
    if ring.kind == INT:
        return abs(x)
    if ring.kind == POLYQ:
        return x._scaled(rational_quotient(1, x.leading()[1]))
    return Residue(math.gcd(x.value, ring.modulus), ring.modulus)


def canonical_key(x: RingElement):
    """The sort key of canonical-form elements: factor lists, inverted lists
    and reports are ordered by it.

    It is a sort key only.  Normalized factors are canonical ``Poly``s,
    positive ints or residues, so the element's own ``==`` and ``hash``
    decide "same factor"; sets and dicts of factors hold the elements.
    A ``Poly``'s key is computed once and kept in its ``_key`` slot.  It
    is the ``repr`` of the term tuple with every coefficient as a
    ``Fraction``, so that factor order does not depend on which
    coefficients are stored as ints; an int ``c`` is spelled
    ``Fraction(c, 1)`` directly, without building the ``Fraction``, and
    integers are spelled by ``_to_decimal``, so a coefficient of any size
    has a key.
    """
    if isinstance(x, int):
        return (0, x, "")
    if isinstance(x, Residue):
        return (0, x.value, "")
    try:
        return x._key
    except AttributeError:
        spelled = [
            f"({e!r}, Fraction({_to_decimal(c)}, 1))" if type(c) is int else _term_repr((e, c))
            for e, c in x.terms
        ]
        tail = "," if len(spelled) == 1 else ""
        key = (x.degree, 0, f"({', '.join(spelled)}{tail})")
        object.__setattr__(x, "_key", key)
        return key


# ---------------------------------------------------------------------------
# gcd / exact division / associates


def _require_euclidean(ring: RingDescriptor, op: str) -> None:
    if ring.kind == MODINT:
        raise UnsupportedRing(f"{op} is not defined over residue rings")


def gcd(a: RingElement, b: RingElement, ring: RingDescriptor) -> RingElement:
    """Normalized greatest common divisor; ``gcd(0, 0) = 0``.

    Polynomial operands must use one variable between them, though the ring
    may have more; ``poly_divmod`` raises ``UnsupportedRing`` otherwise.
    """
    _require_euclidean(ring, "gcd")
    a = coerce(a, ring)
    b = coerce(b, ring)
    if ring.kind == INT:
        return math.gcd(a, b)
    while b:
        a, b = b, a % b
    return normalized_associate(a, ring)


def _extended_gcd(a: RingElement, b: RingElement, ring: RingDescriptor):
    """``extended_gcd`` for operands already in the Euclidean ``ring``."""
    old_r, r = a, b
    old_u, u = ring.one(), ring.zero()
    old_v, v = ring.zero(), ring.one()
    while r:
        q, rem = divmod(old_r, r)
        old_r, r = r, rem
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    c = rational_quotient(1, unit_part(old_r, ring))
    return old_r * c, old_u * c, old_v * c


def extended_gcd(a: RingElement, b: RingElement, ring: RingDescriptor):
    """``(g, u, v)`` with ``u*a + v*b = g`` and ``g`` normalized; operands
    as for ``gcd``."""
    _require_euclidean(ring, "extended gcd")
    return _extended_gcd(coerce(a, ring), coerce(b, ring), ring)


def exact_divide(a: RingElement, b: RingElement, ring: RingDescriptor) -> Optional[RingElement]:
    """The quotient ``q`` with ``q*b == a``, or ``None`` when ``b`` does not divide ``a``."""
    a = coerce(a, ring)
    b = coerce(b, ring)
    if is_zero_element(b):
        raise ZeroDivisionError("exact division by zero")
    if ring.kind == MODINT:
        n = ring.modulus
        g = math.gcd(b.value, n)
        if a.value % g:
            return None
        q = (a.value // g) * pow(b.value // g, -1, n // g) % (n // g)
        return Residue(q, n)
    if ring.kind == INT or ring.nvars == 1:
        q, r = divmod(a, b)
        return None if r else q
    # Multivariate exact division by iterated leading-term elimination
    # under the graded-lexicographic order; the quotient's terms come out
    # in descending order.
    qterms = []
    r = a
    bexp, bc = b.leading()
    while r.terms:
        rexp, rc = r.terms[0]
        diff = tuple(x - y for x, y in zip(rexp, bexp))
        if any(d < 0 for d in diff):
            return None
        t = (diff, rational_quotient(rc, bc))
        qterms.append(t)
        r = r - Poly._of(ring.nvars, (t,)) * b
    return Poly._of(ring.nvars, tuple(qterms))


def is_associate(a: RingElement, b: RingElement, ring: RingDescriptor) -> bool:
    """True when ``a = u*b`` for a unit ``u`` of the base ring."""
    a = coerce(a, ring)
    b = coerce(b, ring)
    return normalized_associate(a, ring) == normalized_associate(b, ring)


# ---------------------------------------------------------------------------
# primality / irreducibility

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
_TRIAL_LIMIT = 10**6


def is_prime(n: int) -> bool:
    """Deterministic primality test for ``n`` below ~3.3e24; ``TooLarge``
    above that bound, unless a small prime divides ``n``."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= _MR_LIMIT:
        raise TooLarge(f"primality testing is supported only below {_MR_LIMIT}")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor_integer(n: int) -> Tuple[Tuple[int, int], ...]:
    """Prime factorization of ``|n| >= 1`` by trial division.

    Residual cofactors beyond the trial bound must themselves be prime;
    anything else is refused with ``TooLarge`` rather than silently
    mis-factored.
    """
    n = abs(n)
    if n == 0:
        raise InvalidValue("zero has no factorization")
    out = []
    for p in (2, 3, 5):
        m = 0
        while n % p == 0:
            n //= p
            m += 1
        if m:
            out.append((p, m))
    d = 7
    while d * d <= n and d <= _TRIAL_LIMIT:
        m = 0
        while n % d == 0:
            n //= d
            m += 1
        if m:
            out.append((d, m))
        d += 2
    if n > 1:
        if not is_prime(n):
            raise TooLarge(f"cannot factor residual cofactor {n}")
        out.append((n, 1))
    return tuple(sorted(out))


def _rational_is_square(q: Fraction) -> bool:
    if q < 0:
        return False
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    return rn * rn == q.numerator and rd * rd == q.denominator


def _first_true(lo: int, hi: int, pred) -> int:
    """The least ``y`` in ``[lo, hi]`` with ``pred(y)``, for a predicate that
    is false and then true on that range; ``hi + 1`` when there is none."""
    while lo <= hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid - 1
        else:
            lo = mid + 1
    return lo


def _monic_cubic_has_integer_root(b: int, c: int, d: int) -> bool:
    """Whether ``g(y) = y^3 + b*y^2 + c*y + d`` has an integer root.

    Every real root lies in ``[-B, B]`` with ``B = 1 + max(|b|, |c|, |d|)``.
    The step ``g(y+1) - g(y)`` is a convex quadratic in ``y``; it is negative
    on at most one run ``[p, q]`` of integers, so ``g`` is monotone on the
    integers of ``[-B, p]``, ``[p, q+1]`` and ``[q+1, B]``, and one bisection
    per piece finds any integer root.
    """

    def g(y):
        return ((y + b) * y + c) * y + d

    def step(y):
        return g(y + 1) - g(y)

    bound = 1 + max(abs(b), abs(c), abs(d))
    # The step's least value on the integers sits next to its vertex -(2b+3)/6.
    m = (-(2 * b + 3)) // 6
    m = min(m, m + 1, key=step)
    if step(m) >= 0:
        pieces = [(-bound, bound, 1)]
    else:
        p = _first_true(-bound, m, lambda y: step(y) < 0)
        q1 = _first_true(m, bound, lambda y: step(y) >= 0)
        pieces = [(-bound, p, 1), (p, q1, -1), (q1, bound, 1)]
    for lo, hi, sign in pieces:
        y = _first_true(lo, hi, lambda t: sign * g(t) >= 0)
        if y <= hi and g(y) == 0:
            return True
    return False


def _poly_irreducible_low_degree(p: Poly) -> bool:
    """Irreducibility over the rationals for univariate degree <= 3.

    A quadratic is irreducible exactly when its discriminant is not a
    rational square, a cubic exactly when it has no rational root.  Both
    tests read the integer numerators: the common denominator scales the
    discriminant by a square and cancels in the monic cubic.
    """
    if p.nvars == 1:
        coeffs, _ = p._vec
    else:
        used = p.used_variables()
        coeffs, _ = _vector_of_terms(p.terms, used[0] if used else 0)
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    if deg == 2:
        c, b, a = coeffs
        return not _rational_is_square(b * b - 4 * a * c)
    # x = y/L turns the monic cubic into an integer monic one in y, whose
    # rational roots are integers.
    c0, c1, c2 = (Fraction(x) / coeffs[3] for x in coeffs[:3])
    lcm = math.lcm(c0.denominator, c1.denominator, c2.denominator)
    return not _monic_cubic_has_integer_root(
        int(c2 * lcm), int(c1 * lcm**2), int(c0 * lcm**3)
    )


VERIFIED = "Verified"
DECLARED = "Declared"


@dataclass(frozen=True)
class Factor:
    """An irreducible factor in normalized-associate form.

    Integer factors must pass the deterministic primality check and are
    tagged ``Verified``.  Polynomial factors are trusted by declaration,
    except univariate factors of degree <= 3 whose irreducibility over the
    rationals is actually checked.
    """

    element: RingElement
    multiplicity: int = 1
    irreducibility: str = DECLARED


def _factor_key(f: Factor):
    return canonical_key(f.element)


def make_factor(element, ring: RingDescriptor, multiplicity: int = 1) -> Factor:
    """Validate and canonicalize a factor for ``ring``'s base ring."""
    if multiplicity < 1:
        raise ValueError("factor multiplicity must be positive")
    element = coerce(element, ring.base())
    if is_zero_element(element):
        raise InvalidValue("zero is not a valid factor")
    element = normalized_associate(element, ring.base())
    if ring.kind == INT:
        if element == 1:
            raise ValueError("units are not valid factors")
        if not is_prime(element):
            raise ValueError(f"{element} is not prime; supply its prime factors instead")
        return Factor(element, multiplicity, VERIFIED)
    if ring.kind == MODINT:
        return Factor(element, multiplicity, DECLARED)
    if element.is_constant:
        raise InvalidValue("constants are not valid polynomial factors")
    if len(element.used_variables()) == 1 and element.degree <= 3:
        if not _poly_irreducible_low_degree(element):
            raise InvalidValue(
                f"'{format_element(element, ring)}' is reducible over the rationals"
            )
        return Factor(element, multiplicity, VERIFIED)
    return Factor(element, multiplicity, DECLARED)


def integer_factors(n: int, ring: RingDescriptor) -> Tuple[Factor, ...]:
    """Split an integer into prime ``Factor``s (Int rings only)."""
    return tuple(make_factor(p, ring, m) for p, m in factor_integer(n))


def lcm_factors(factors: Iterable[Factor]) -> Tuple[Factor, ...]:
    """The lcm of factor lists, chained: each element once, as its first
    factor of largest multiplicity, in ``canonical_key`` order."""
    merged: Dict[RingElement, Factor] = {}
    for f in factors:
        old = merged.get(f.element)
        if old is None or f.multiplicity > old.multiplicity:
            merged[f.element] = f
    return tuple(sorted(merged.values(), key=_factor_key))


# ---------------------------------------------------------------------------
# factored ideal generators


@dataclass(frozen=True)
class FactoredElement:
    """A principal-ideal generator kept in factored form.

    ``is_zero`` marks the zero ideal (empty factor list).  An empty factor
    list with ``is_zero`` false is the unit ideal; graphs drop such labels
    during normalization because the constraint they impose is vacuous.
    """

    factors: Tuple[Factor, ...] = ()
    is_zero: bool = False

    def __post_init__(self):
        if self.is_zero and self.factors:
            raise ValueError("the zero ideal carries no factors")
        if len({f.element for f in self.factors}) != len(self.factors):
            raise ValueError("factors must be pairwise non-associate")
        object.__setattr__(self, "factors", tuple(sorted(self.factors, key=_factor_key)))

    @classmethod
    def zero(cls) -> "FactoredElement":
        return cls((), True)

    @classmethod
    def unit(cls) -> "FactoredElement":
        return cls((), False)

    def expand(self, ring: RingDescriptor) -> RingElement:
        if self.is_zero:
            return ring.zero()
        out = ring.one()
        for f in self.factors:
            out = out * coerce(f.element, ring) ** f.multiplicity
        return out

    def is_unit_ideal(self) -> bool:
        return not self.is_zero and not self.factors

    def without(self, drop: Container[RingElement]) -> "FactoredElement":
        """Drop the factors whose element is in ``drop``, a set (or any
        container) of normalized associates such as a ring's inverted
        elements."""
        if self.is_zero:
            return self
        kept = tuple(f for f in self.factors if f.element not in drop)
        return self if len(kept) == len(self.factors) else FactoredElement(kept, False)


def factored_from_residue(value: int, ring: RingDescriptor) -> FactoredElement:
    """The ideal generated by an integer viewed in a residue ring."""
    n = ring.modulus
    v = value % n
    if v == 0:
        return FactoredElement.zero()
    g = math.gcd(v, n)
    if g == 1:
        return FactoredElement.unit()
    return FactoredElement((make_factor(Residue(g, n), ring),))


def edge_modulus(label: FactoredElement, ring: RingDescriptor) -> int:
    """The integer modulus a residue-ring label imposes on differences.

    Over ``Z/n`` the difference ``d`` of the endpoint values lies in the
    ideal of ``label`` exactly when its integer lift is divisible by
    ``gcd(label, n)``; a zero label, or one that vanishes modulo ``n``,
    forces ``n | d``.
    """
    n = ring.modulus
    if label.is_zero:
        return n
    return math.gcd(label.expand(ring).value, n) or n


def strip_inverted(label: FactoredElement, ring: RingDescriptor) -> FactoredElement:
    """``label`` without the factors equal to one ``ring`` inverts, which
    are units there; the one place a label meets the inverted factors.  A
    factor that is a unit only through a reducible inverted factor is kept.
    """
    if not ring.inverted or label.is_zero:
        return label
    return label.without(ring.inverted_elements())


def _edge_generator(label: FactoredElement, ring: RingDescriptor) -> RingElement:
    """The edge ideal's generator in the ring the solvers compute in:
    ``Int`` for ``Z/n``, ``ring`` itself otherwise.

    Over ``Z/n`` every label becomes the integer modulus it imposes,
    ``edge_modulus``, a nonzero divisor of ``n``: a zero label is the
    congruence modulo ``n``, not equality.  Otherwise inverted factors are
    stripped (they are units), and a zero label stays zero (equality).
    """
    if ring.kind == MODINT:
        return edge_modulus(label, ring)
    return strip_inverted(label, ring).expand(ring)


def trivializes(label: FactoredElement, ring: RingDescriptor) -> bool:
    """Whether the ideal becomes the unit ideal in ``ring``'s localization.

    The zero ideal never trivializes; a nonzero ideal trivializes exactly
    when every one of its factors is an associate of an inverted factor.
    This is the test ``restrict`` applies to each label.
    """
    return strip_inverted(label, ring).is_unit_ideal()


# ---------------------------------------------------------------------------
# formatting

# Python refuses ``str(int)`` and ``int(str)`` past a process-wide digit
# limit (4,300 by default since 3.10.7, and never under 640 while it is
# on).  Decimal conversion splits by powers of ten, so no single call
# crosses it, and leaves the limit, which belongs to the caller, alone.
_DECIMAL_DIGITS = 600
_DECIMAL_BITS = 1990  # 2**1990 < 10**600: an int this short has <= 600 digits


def _to_decimal(n: int) -> str:
    """``str(n)`` for an int of any size."""
    if n.bit_length() <= _DECIMAL_BITS:
        return str(n)
    if n < 0:
        return "-" + _to_decimal(-n)
    half = n.bit_length() * 3 // 20  # about half its digits: log10(2) > 0.3
    high, low = divmod(n, 10**half)
    return _to_decimal(high) + _to_decimal(low).zfill(half)


def _from_decimal(text: str) -> int:
    """``int(text)`` for ASCII digits of any length, after an optional '-'."""
    if len(text) <= _DECIMAL_DIGITS:
        return int(text)
    if text[0] == "-":
        return -_from_decimal(text[1:])
    half = len(text) // 2
    return _from_decimal(text[:-half]) * 10**half + _from_decimal(text[-half:])


def format_poly(p: Poly, variables: Sequence[str]) -> str:
    """The text of ``p`` in ``variables``, spelled once per variable list:
    the text is kept in ``p``'s ``_text`` slot and returned while the
    variables are the same object or equal to the ones it was spelled in."""
    try:
        known, text = p._text
    except AttributeError:
        pass
    else:
        if known is variables or known == variables:
            return text
    text = _spell_poly(p, variables)
    _set_text(p, (tuple(variables), text))
    return text


def _spell_poly(p: Poly, variables: Sequence[str]) -> str:
    if not p.terms:
        return "0"
    chunks = []
    for i, (exps, coeff) in enumerate(p.terms):
        num, den = coeff.numerator, coeff.denominator
        mag = _to_decimal(abs(num))
        if den != 1:
            mag = f"{mag}/{_to_decimal(den)}"
        vars_part = "*".join(
            f"{v}^{e}" if e > 1 else v for v, e in zip(variables, exps) if e > 0
        )
        if not vars_part:
            body = mag
        elif mag == "1":
            body = vars_part
        else:
            body = f"{mag}*{vars_part}"
        if i == 0:
            if num < 0:
                # An explicit coefficient keeps the leading sign outside any
                # exponent: the grammar binds '-' tighter than '^'.
                if vars_part:
                    chunks.append(f"-{mag}*{vars_part}")
                else:
                    chunks.append(f"-{mag}")
            else:
                chunks.append(body)
        else:
            chunks.append(("- " if num < 0 else "+ ") + body)
    return " ".join(chunks)


def format_element(x: RingElement, ring: RingDescriptor) -> str:
    """The canonical text of ``x``, which ``parse_element`` reads back.

    An int over ``Int`` is printed as it is; any other value is checked by
    ``coerce`` first, so a value of another ring raises ``MixedRings``.
    Integers of any size print in full.
    """
    if type(x) is int and ring.kind == INT:
        return _to_decimal(x)
    x = coerce(x, ring)
    if ring.kind == INT:
        return _to_decimal(x)
    if ring.kind == MODINT:
        return _to_decimal(x.value)
    return format_poly(x, ring.variables)


def format_factored(label: FactoredElement, ring: RingDescriptor) -> str:
    if label.is_zero:
        return "0"
    if not label.factors:
        return "1"
    parts = []
    for f in label.factors:
        text = format_element(f.element, ring)
        if not (text.isdigit() or text.isidentifier()):
            text = f"({text})"
        if f.multiplicity > 1:
            text = f"{text}^{f.multiplicity}"
        parts.append(text)
    return "*".join(parts)
