"""Error hierarchy shared by the library and the command line front end,
and the checks that raise ``invalid-input`` at the public boundary.

Each class carries a stable machine-readable ``code`` that the CLI serializes
into its JSON reports.
"""

from __future__ import annotations

import functools


class ForceLabError(Exception):
    """Base class for all domain errors."""

    code = "error"


class InvalidInput(ForceLabError):
    code = "invalid-input"


# The most characters a refusal shows of one value, before "...".
SHOWN = 500


def described(value) -> str:
    """How a refusal shows a value: its repr, cut after SHOWN characters.
    A set, name or formula of rank over 8 is shown by kind and rank, since
    its repr unfolds each shared member where it occurs (2^n - 1 of them
    for check(n)), and an int of over 4 * SHOWN bits by its size.  A dict,
    tuple, list or set is shown member by member, each in the room that
    the members before it left, so no member's repr is built once SHOWN
    characters are spent."""
    text = _shown(value, SHOWN)
    return text if len(text) <= SHOWN else text[:SHOWN] + "..."


def _shown(value, room: int) -> str:
    rank = getattr(value, "rank", None)
    if type(rank) is int and rank > 8:
        kind = type(value).__name__
        return f"{'an' if kind[0] in 'AEIOU' else 'a'} {kind} of rank {rank}"
    kind = type(value)
    if kind in (tuple, list, dict, set, frozenset) and value:
        opening, closing = {tuple: "()", list: "[]", dict: "{}", set: "{}",
                            frozenset: ("frozenset({", "})")}[kind]
        room -= len(opening) + len(closing)
        parts = []
        for member in value.items() if kind is dict else value:
            if room <= 0:
                parts.append("...")
                break
            if kind is dict:
                key = _shown(member[0], room)
                text = f"{key}: {_shown(member[1], room - len(key) - 2)}"
            else:
                text = _shown(member, room)
            parts.append(text)
            room -= len(text) + 2
        tail = "," if kind is tuple and len(value) == 1 else ""
        return opening + ", ".join(parts) + tail + closing
    if kind is int and value.bit_length() > 4 * SHOWN:
        return f"an int of {value.bit_length()} bits"
    text = repr(value)
    return text if len(text) <= room else text[:max(room, 0)] + "..."


def check_natural(value, what: str, least: int = 0) -> int:
    """``value`` when it is an integer of at least ``least``; any other
    value, a bool or float included, is refused with InvalidInput."""
    if type(value) is not int or value < least:
        raise InvalidInput(
            f"{what} must be an integer of at least {least}, "
            f"not {described(value)}")
    return value


def pass_on_callers(e: Exception) -> None:
    """Re-raise e, caught where an argument is read, if the caller's own
    code raised it: its traceback goes on past the frame that caught it."""
    if e.__traceback__.tb_next is not None:
        raise e


def _phrase(kind) -> str:
    if type(kind) is list:
        return f"an iterable of {_phrase(kind[0])}"
    kinds = kind if type(kind) is tuple else (kind,)
    return " or ".join(k.__name__.lstrip("_") for k in kinds)


def check_kind(value, kind, where: str, param: str):
    """``value`` when it is of ``kind`` (see :func:`takes`), a ``[K]`` value
    as a tuple; anything else is refused with InvalidInput."""
    if type(kind) is list:
        try:
            members = iter(value)
        except TypeError:
            members = None
        if members is not None:  # what reading them raises propagates
            value, member = tuple(members), kind[0]
            if type(member) is list:
                return tuple(check_kind(m, member, where, f"a member of {param}")
                             for m in value)
            for m in value:
                if not isinstance(m, member) or type(m) is bool:
                    check_kind(m, member, where, f"a member of {param}")
            return value
    elif isinstance(value, kind) and (type(value) is not bool or kind is object):
        return value
    raise InvalidInput(
        f"{where} takes {param} as {_phrase(kind)}, "
        f"not {described(value)}")


def takes(**kinds):
    """Declare the kinds of a callable's parameters by name, checked once
    per call by :func:`check_kind`: a class or tuple of classes, whose
    instances pass (a bool only where any object does), or ``[K]``, any
    iterable of values of kind K, passed on as a tuple.  None passes where
    it is the default.  On a class, the declaration wraps ``__init__``."""
    def declare(fn):
        if isinstance(fn, type):
            fn.__init__ = declare(fn.__init__)
            return fn
        code, defaults = fn.__code__, fn.__defaults__ or ()
        names = code.co_varnames[:code.co_argcount]
        none = {p for p, d in zip(names[::-1], defaults[::-1]) if d is None}
        checks = []
        for p, k in kinds.items():
            # What passes as it is, with one isinstance and no call: an
            # instance of the kind, a tuple for [object], no other [K]
            # value, and None where None is the default.
            quick = (k,) if type(k) is not list else \
                (tuple,) if k == [object] else ()
            if p in none:
                quick += (type(None),)
            checks.append((names.index(p), p, quick, k))
        where = fn.__qualname__.removesuffix(".__init__")

        @functools.wraps(fn)
        def checked(*args, **kwargs):
            n = len(args)
            for at, param, quick, kind in checks:
                if at < n:
                    value = args[at]
                elif param in kwargs:
                    value = kwargs[param]
                else:
                    continue
                if isinstance(value, quick) and type(value) is not bool:
                    continue
                value = check_kind(value, kind, where, param)
                if at < n:
                    args = (*args[:at], value, *args[at + 1:])
                else:
                    kwargs[param] = value
            return fn(*args, **kwargs)
        return checked
    return declare


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
