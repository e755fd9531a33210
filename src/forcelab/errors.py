"""Error hierarchy shared by the library and the command line front end.

Each class carries a stable machine-readable ``code`` that the CLI serializes
into its JSON reports.
"""

from __future__ import annotations


class ForceLabError(Exception):
    """Base class for all domain errors."""

    code = "error"


class InvalidInput(ForceLabError):
    code = "invalid-input"


def check_natural(value, what: str, least: int = 0) -> int:
    """``value`` when it is an integer of at least ``least``; any other
    value, a bool or float included, is refused with InvalidInput."""
    if type(value) is not int or value < least:
        raise InvalidInput(
            f"{what} must be an integer of at least {least}, not {value!r}")
    return value


class UnknownCondition(ForceLabError):
    code = "unknown-condition"


class TruncationEscape(ForceLabError):
    """An answer would depend on conditions outside the declared truncation."""

    code = "truncation-escape"


class NotMaximal(ForceLabError):
    code = "not-maximal"


class NotMaximalBelow(ForceLabError):
    code = "not-maximal-below-p"


class PreconditionViolated(ForceLabError):
    code = "precondition-violated"


class ValueEscapesBlock(ForceLabError):
    code = "value-escapes-block"


class ColumnCollision(ForceLabError):
    code = "column-collision"


class NotInSubgroup(ForceLabError):
    code = "not-in-subgroup"


class MalformedSigma(ForceLabError):
    code = "malformed-sigma"


class NonInjective(ForceLabError):
    code = "non-injective"


class NotDense(ForceLabError):
    code = "not-dense"


class OutOfRange(ForceLabError):
    code = "out-of-range"


class ReportTooLarge(ForceLabError):
    """A report would unfold to more name entries than the CLI writes."""

    code = "report-too-large"


class ParseError(ForceLabError):
    """Syntax error in a scenario file; carries a 1-based position."""

    code = "syntax-error"

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.line = line
        self.col = col

    def __str__(self) -> str:
        base = super().__str__()
        if self.line:
            return f"{base} (line {self.line}, column {self.col})"
        return base


class UnresolvedReference(ParseError):
    code = "unresolved-reference"


class DuplicateIdentifier(ParseError):
    code = "duplicate-identifier"
