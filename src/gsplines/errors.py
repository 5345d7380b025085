"""Exception types shared across the package.

Three categories matter for callers (and for the CLI's exit codes):
``InputError`` covers malformed user input, ``ComputationError`` covers
well-formed input the engine cannot handle, and ``InternalError`` covers a
broken internal invariant, a fault of the engine rather than of its input.
"""


class SplineError(Exception):
    """Base class for every package-specific error."""


class InputError(SplineError):
    """Malformed input: files, expressions, graph data, schemas."""


class InvalidValue(InputError, ValueError):
    """A value from a file or a flag that a check refuses: a vertex order,
    a modulus, a variable name, a factor, an open.  It is a ``ValueError``
    too, so a caller that catches that type still does."""


class ComputationError(SplineError):
    """Valid input on which the requested computation cannot proceed."""


class InternalError(SplineError):
    """An internal invariant failed; the engine, not the input, is at fault."""


class UnsupportedRing(ComputationError):
    """The operation is not defined over the given coefficient ring."""


class TooLarge(ComputationError):
    """A size guard tripped."""


class ParseError(InputError):
    """Syntax error in a polynomial/integer expression.

    Carries the 0-based character ``position`` and a short description of
    what was expected there.
    """

    def __init__(self, message: str, position: int, expected: str | None = None):
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.position = position
        self.expected = expected


class UnknownVariable(ParseError):
    """An identifier does not name a variable of the ring."""


class UnknownVertex(InputError):
    """An edge endpoint does not name a declared vertex."""


class MixedRings(InputError):
    """An element does not belong to the ring it is used with."""


class NoSuchEdge(InputError):
    """The named edge is not present in the graph."""


class NoSuchVertex(InputError):
    """The named vertex is not present in the graph."""


class UnrelatedGraphs(InputError):
    """Two graphs do not differ by a single supported operation."""


class SchemaError(InputError):
    """A JSON document does not match the expected schema."""
