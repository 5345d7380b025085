"""Local-freeness certificates from basic open covers.

A certificate consists of named basic opens, each the complement of the
vanishing locus of a product of irreducible factors.  The graph is
restricted along every open; when each restriction is trivial or determined
by a cycle and the opens cover the base spectrum, the spline module is
certified FREE.  Failure of any part never claims non-freeness: the verdict
falls back to UNKNOWN.

The opens cover exactly when their defining products generate the unit
ideal.  One rule decides this or says it cannot: a factor inverted by every
open refutes covering; otherwise, when the factors use at most one
variable, the gcd of the products decides; otherwise the answer is
Inconclusive rather than a guess.  Over a localized ring the factors it
already inverts are units and take no part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import InvalidValue, UnsupportedRing
from .graphs import EdgeLabeledGraph, RestrictionOutcome, restrict
from .rings import (
    INT,
    MODINT,
    POLYQ,
    Factor,
    FactoredElement,
    RingDescriptor,
    RingElement,
    canonical_key,
    format_element,
    gcd,
    is_unit,
    strip_inverted,
)

COVERS = "Covers"
FAILS_TO_COVER = "FailsToCover"
INCONCLUSIVE = "Inconclusive"

FREE = "FREE"
UNKNOWN = "UNKNOWN"
NOT_APPLICABLE = "NOT_APPLICABLE"


@dataclass(frozen=True)
class BasicOpen:
    """A named basic open: the localization inverting ``invert``."""

    name: str
    invert: Tuple[Factor, ...]

    def __post_init__(self):
        if not self.invert:
            raise InvalidValue(f"open {self.name!r} must invert at least one factor")
        if len({f.element for f in self.invert}) != len(self.invert):
            raise ValueError(f"open {self.name!r} repeats a factor")


@dataclass(frozen=True)
class CoverStatus:
    status: str
    common_factor: Optional[RingElement] = None
    detail: str = ""


@dataclass(frozen=True)
class CertificateReport:
    per_open: Tuple[Tuple[str, RestrictionOutcome], ...]
    cover: CoverStatus
    verdict: str
    notes: Tuple[str, ...]


def _common_factor(lists: Sequence[Tuple[Factor, ...]]) -> Optional[RingElement]:
    """A factor associate-present in every open's inverted list, if any."""
    common = None
    for factors in lists:
        elements = {f.element for f in factors}
        common = elements if common is None else common & elements
        if not common:
            return None
    return min(common, key=canonical_key) if common else None


def check_cover(ring: RingDescriptor, opens: Sequence[BasicOpen]) -> CoverStatus:
    """Decide whether the opens cover the base spectrum.

    The opens cover exactly when their defining products generate the unit
    ideal.  In order: a factor inverted by every open fails to cover; over
    polynomials whose factors together use two or more variables the answer
    is Inconclusive; otherwise the products lie in ``Z`` or in one-variable
    ``Q[t]``, and their gcd decides (a unit covers, anything else is the
    common factor).  The gcd, not the declared factorizations, decides, so
    a declared irreducible that factors is still caught.  Over a localized
    ring the question is asked in that ring: each open's factors that the
    ring already inverts are units and are dropped first, and an open left
    with none is the whole spectrum, so the opens cover.  The check is
    permutation-invariant, idempotent under duplicated opens, and adding an
    open never turns Covers into FailsToCover.
    """
    if not opens:
        raise ValueError("at least one open is required")
    if ring.kind == MODINT:
        raise UnsupportedRing("covers are checked over integer or polynomial rings")
    lists = [o.invert for o in opens]
    if ring.inverted:
        lists = [strip_inverted(FactoredElement(factors), ring).factors for factors in lists]
        for o, factors in zip(opens, lists):
            if not factors:
                return CoverStatus(
                    COVERS, detail=f"open {o.name} inverts only units, so it is the whole spectrum"
                )
    common = _common_factor(lists)
    if common is not None:
        return CoverStatus(
            FAILS_TO_COVER, common, detail=format_element(common, ring)
        )
    if ring.kind == POLYQ:
        used = {v for factors in lists for f in factors for v in f.element.used_variables()}
        if len(used) > 1:
            return CoverStatus(
                INCONCLUSIVE,
                detail="the defining products use more than one variable",
            )
    g = ring.zero()
    for factors in lists:
        g = gcd(g, FactoredElement(factors).expand(ring), ring)
        if is_unit(g, ring):
            return CoverStatus(COVERS, detail="unit gcd of the defining products")
    return CoverStatus(FAILS_TO_COVER, g, detail=format_element(g, ring))


def classify_restrictions(
    g: EdgeLabeledGraph, opens: Sequence[BasicOpen]
) -> Tuple[Tuple[str, RestrictionOutcome], ...]:
    """Restrict the graph along each open, in declaration order."""
    if g.ring.kind == MODINT:
        raise UnsupportedRing("restrictions are not defined over residue rings")
    return tuple((o.name, restrict(g, o.invert)) for o in opens)


def _ring_eligible(ring: RingDescriptor) -> bool:
    if ring.kind == INT:
        return True
    return ring.kind == POLYQ and ring.nvars <= 2


def verify_certificate(
    g: EdgeLabeledGraph, opens: Sequence[BasicOpen]
) -> CertificateReport:
    """Combine the cover check and the per-open classifications.

    FREE requires a covering family, every restriction trivial or
    determined by a cycle, and a coefficient ring within scope (integers,
    or polynomials in at most two variables).  Covering is reduced to the
    base spectrum: the structure map splits through the constant splines,
    so opens that cover the base pull back to a cover upstairs.
    """
    per_open = classify_restrictions(g, opens)
    cover = check_cover(g.ring, opens)
    notes = [
        "covering is checked on the base spectrum; the diagonal (constant-"
        "spline) section carries a base cover to a cover of the whole spectrum",
    ]
    if cover.status == COVERS and cover.detail:
        notes.append(f"cover evidence: {cover.detail}")
    all_good = all(
        outcome.classification.kind in ("Trivial", "DeterminedByCycle")
        for _, outcome in per_open
    )
    if not _ring_eligible(g.ring):
        verdict = NOT_APPLICABLE
        notes.append(
            "freeness is certified only over the integers or over polynomial "
            "rings in at most two variables"
        )
    elif cover.status == COVERS and all_good:
        verdict = FREE
    else:
        verdict = UNKNOWN
    return CertificateReport(per_open, cover, verdict, tuple(notes))
