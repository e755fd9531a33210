"""Hereditarily finite sets.

Every ground value in the laboratory (block elements, ordinals, encoded
conditions, evaluated names) is a hereditarily finite set.  Instances are
immutable and interned, so equal sets are one object, and they sort by a
canonical key (:meth:`HF.key`) so that every enumeration in the package is
deterministic.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterable, Iterator

from .errors import InvalidInput, described, pass_on_callers, takes


class _Ref(weakref.ref):
    """A unique table's weak reference to an interned object, with its key."""

    __slots__ = ("key",)


def unique_table() -> tuple[dict, Callable]:
    """A weak unique table, mapping each key to a weak reference to the one
    live object with that key (a reference that gives None once the object
    has died), and the function that enters an object in it.  A dying object's callback deletes its key
    only while the key still maps to that reference, and reads no module
    global, so it is safe at interpreter exit.  Unlike a
    WeakValueDictionary's, a lookup runs no Python code."""
    table: dict = {}

    def forget(ref: _Ref) -> None:
        if table.get(ref.key) is ref:
            del table[ref.key]

    def enter(key, obj) -> None:
        ref = table[key] = _Ref(obj, forget)
        ref.key = key

    return table, enter


# The unique table: every live HF set, keyed by its member frozenset and
# held weakly.
_UNIQUE, _enter = unique_table()


class HF:
    """An immutable hereditarily finite set.

    Sets are interned (hash-consed): constructing a set equal to a live one
    returns that object, so ``==`` is ``is`` and the hash is the identity
    hash.  Copying and pickling return the interned set.
    """

    __slots__ = ("members", "rank", "_key", "__weakref__")

    def __new__(cls, members: Iterable["HF"] = ()):
        try:
            ms = frozenset(members)
        except TypeError as e:
            pass_on_callers(e)
            raise InvalidInput(
                f"members of an HF set must be HF sets: {e}") from None
        ref = _UNIQUE.get(ms)
        h = None if ref is None else ref()
        if h is None:
            rank = 0
            for m in ms:
                if not isinstance(m, HF):
                    raise InvalidInput("members of an HF set must be HF "
                                       f"sets, not {described(m)}")
                if m.rank >= rank:
                    rank = m.rank + 1
            h = object.__new__(cls)
            h.members = ms
            h.rank = rank
            h._key = None
            _enter(ms, h)
        return h

    def __init__(self, members: Iterable["HF"] = ()):
        """Nothing to do: ``__new__`` returned the interned set.  Kept,
        with the constructor's signature, so that instrumentation can wrap
        construction (``object.__init__`` takes no arguments)."""

    def key(self) -> tuple:
        """Canonical sort key: (rank, size, sorted member keys)."""
        if self._key is None:
            self._key = (
                self.rank,
                len(self.members),
                tuple(sorted(m.key() for m in self.members)),
            )
        return self._key

    def __reduce__(self):
        return HF, (self.members,)

    def __deepcopy__(self, memo) -> "HF":
        return self

    def __iter__(self) -> Iterator["HF"]:
        return iter(sorted(self.members, key=HF.key))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, item: "HF") -> bool:
        return item in self.members

    def __repr__(self) -> str:
        """Canonical text form; von Neumann naturals use digit shorthand."""
        n = _nat_value(self)
        return "{" + ",".join(map(repr, self)) + "}" if n is None else str(n)


EMPTY = HF()

# The naturals built so far.  The list holds them strongly, so that the
# naturals every operation asks for are built once per process, not once
# per operation after the unique table has let them go.
_NATS: list[HF] = [EMPTY]


def nat(n: int) -> HF:
    """The von Neumann natural n = {0, 1, ..., n-1}."""
    if type(n) is not int or n < 0:
        raise InvalidInput(f"naturals only, not {described(n)}")
    while len(_NATS) <= n:
        _NATS.append(HF(_NATS))
    return _NATS[n]


@takes(h=HF)
def nat_value(h: HF) -> int | None:
    """Return n if h is the von Neumann natural n, else None."""
    k = len(h.members)
    return k if h.rank == k and h is nat(k) else None


@takes(a=HF, b=HF)
def kuratowski(a: HF, b: HF) -> HF:
    """The ordered pair (a, b) as {{a}, {a, b}}."""
    return HF((HF((a,)), HF((a, b))))


_nat_value = nat_value.__wrapped__  # undeclared, for the library's hot calls
_kuratowski = kuratowski.__wrapped__
