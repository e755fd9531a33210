"""Names over a forcing poset and their evaluation along filters.

A name is a finite, well-founded set of (condition, name) entries.  Names are
immutable and interned, so equal names are one object; they sort by a
canonical key (rank first) and evaluate to hereditarily finite sets:

    eval(tau, G) = { eval(sigma, G) : (p, sigma) in tau, p in G }.

Check-names, the filter name, and pair names use the :data:`ONE` sentinel as
their condition, which every filter contains and every poset resolves to its
own greatest element, so those constructors need no poset argument.
"""

from __future__ import annotations

from collections.abc import Container
from typing import Iterable

from .errors import InvalidInput, pass_on_callers, takes
from .hf import HF, EMPTY as HF_EMPTY, _kuratowski, unique_table
from .posets import ONE, Poset, canon_key


# The unique table: every live name, keyed by its entry frozenset and held
# weakly, a table of the same kind as ``hf._UNIQUE``.
_UNIQUE, _enter = unique_table()


class PName:
    """An immutable name: a finite set of (condition, name) entries.

    Names are interned like HF sets: equal names are one object, so ``==``
    is ``is``, and copying and pickling return the interned name.
    ``value`` is the value along every filter of a check-name, a name whose
    every entry is (ONE, a check-name), and None for any other name.
    """

    __slots__ = ("entries", "rank", "value", "_key", "_sorted", "__weakref__")

    def __new__(cls, entries: Iterable[tuple[object, "PName"]] = ()):
        try:
            es = frozenset(entries)
        except TypeError as e:
            pass_on_callers(e)
            raise InvalidInput(
                f"name entries must be (condition, name) pairs: {e}") from None
        ref = _UNIQUE.get(es)
        n = None if ref is None else ref()
        if n is None:
            # One pass validates the entries, takes the rank and collects a
            # check-name's members (members is None once an entry is not
            # (ONE, check-name)).
            rank, members = 0, []
            for entry in es:
                if not (isinstance(entry, tuple) and len(entry) == 2
                        and isinstance(entry[1], PName)):
                    raise InvalidInput(
                        "name entries must be (condition, name) pairs")
                cond, child = entry
                if child.rank >= rank:
                    rank = child.rank + 1
                if members is not None:
                    if cond is ONE and child.value is not None:
                        members.append(child.value)
                    else:
                        members = None
            n = object.__new__(cls)
            n.entries = es
            n.rank = rank
            n.value = None if members is None else HF(members)
            n._key = None
            n._sorted = None
            _enter(es, n)
        return n

    def __init__(self, entries: Iterable[tuple[object, "PName"]] = ()):
        """Nothing to do: ``__new__`` returned the interned name.  Kept,
        with the constructor's signature, so that instrumentation can wrap
        construction (``object.__init__`` takes no arguments)."""

    def key(self) -> tuple:
        """Canonical sort key: (rank, size, sorted entry keys)."""
        if self._key is None:
            self._key = (self.rank, len(self.entries),
                         tuple(map(_entry_key, self.sorted_entries())))
        return self._key

    def sorted_entries(self) -> tuple:
        """The entries in canonical order, sorted once."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self.entries, key=_entry_key))
        return self._sorted

    def __reduce__(self):
        return PName, (self.entries,)

    def __deepcopy__(self, memo) -> "PName":
        return self

    def __repr__(self):
        if not self.entries:
            return "name{}"
        parts = ",".join(f"({c!r},{child!r})"
                         for c, child in self.sorted_entries())
        return "name{" + parts + "}"


def _entry_key(entry: tuple) -> tuple:
    """The canonical order of (condition, name) entries: by condition, then
    by name.  Names sort their entries by it and name spaces their pairs."""
    cond, child = entry
    return canon_key(cond), child.key()


EMPTY_NAME = PName()


def _reach(names: Iterable[PName]) -> set[PName]:
    """All names reachable through entries, the inputs included, in no
    order: a walk with its own stack, so any depth of nesting is read."""
    seen: set[PName] = set()
    stack = list(names)
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        stack.extend(child for _, child in n.entries)
    return seen


@takes(names=[PName])
def hereditary_closure(names: Iterable[PName]) -> list[PName]:
    """All names reachable through entries, the inputs included, in
    canonical order (:meth:`PName.key`).  The names are keyed in rank
    order, so each key finds its children's keys cached, and any depth of
    nesting is read."""
    closure = sorted(_reach(names), key=lambda n: n.rank)
    for n in closure:
        n.key()
    return sorted(closure, key=PName.key)


_closure = hereditary_closure.__wrapped__  # undeclared, for hot calls


# Check-names by value, held strongly: the check-names of condition codes
# and naturals recur in every operation, and the unique table alone would
# let them go between operations.
_CHECKS: dict[HF, PName] = {}


@takes(x=HF)
def check_name(x: HF) -> PName:
    """The canonical name that evaluates to x along every filter."""
    cached = _CHECKS.get(x)
    if cached is None:
        cached = _CHECKS[x] = PName((ONE, _check_name(y)) for y in x.members)
    return cached


_check_name = check_name.__wrapped__  # undeclared, for the recursion above


@takes(poset=Poset)
def gamma_name(poset: Poset) -> PName:
    """The filter name: evaluates to the generic filter, conditions encoded
    as sets."""
    k = poset.kernel()
    return PName(zip(k.conds, map(_check_name, k.codes)))


@takes(tau1=PName, tau2=PName)
def unordered_pair_name(tau1: PName, tau2: PName) -> PName:
    return PName(((ONE, tau1), (ONE, tau2)))


@takes(tau1=PName, tau2=PName)
def ordered_pair_name(tau1: PName, tau2: PName) -> PName:
    return PName((
        (ONE, unordered_pair_name(tau1, tau1)),
        (ONE, unordered_pair_name(tau1, tau2)),
    ))


@takes(tau=PName, filt=Container)
def eval_name(tau: PName, filt) -> HF:
    """Evaluate a name along a filter (any object supporting ``in``).

    ONE counts as a member of every filter, so a check-name reads its
    ``value`` directly, with no per-filter work.  Other values are memoized
    for this call only, so a subname shared by many entries is evaluated
    once.
    """
    return _eval(tau, filt, {})


def _eval(tau: PName, filt, memo: dict) -> HF:
    out = tau.value if tau.value is not None else memo.get(tau)
    if out is None:
        out = memo[tau] = HF(_eval(child, filt, memo)
                             for cond, child in tau.entries if cond in filt)
    return out


@takes(tau=PName)
def name_hf(tau: PName) -> HF:
    """Encode a name itself as a hereditarily finite set of Kuratowski
    (condition, name) pairs.  Only the ONE sentinel is accepted as a
    condition, and it encodes as the empty set (the trivial condition of a
    partial-function poset).

    Values are memoized for this call only, so a subname shared by many
    entries is encoded once.
    """
    return _name_hf(tau, {})


def _name_hf(tau: PName, memo: dict) -> HF:
    out = memo.get(tau)
    if out is None:
        if any(cond is not ONE for cond, _ in tau.entries):
            raise InvalidInput("name_hf encodes only conditions equal to 1")
        out = memo[tau] = HF(_kuratowski(HF_EMPTY, _name_hf(child, memo))
                             for _, child in tau.entries)
    return out


@takes(tau=PName)
def name_conditions(tau: PName) -> set:
    """All conditions appearing hereditarily in a name."""
    return {cond for n in _reach([tau]) for cond, _ in n.entries}
