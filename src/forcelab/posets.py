"""Forcing posets, antichains, density, and generic filters.

Conventions used throughout the package:

* smaller is stronger: ``le(p, q)`` means condition p extends condition q;
* every poset that is used for forcing has a greatest element ``top``;
* generated families (partial-function posets, the level poset over a family
  of sets, binary trees) stand for infinite posets.  Order and compatibility
  are decided exactly for arbitrary finite conditions, but any operation that
  must enumerate conditions consults a declared finite truncation and raises
  :class:`TruncationEscape` when there is none or when an input lies outside
  it.  Within its truncation each answer is exact for the truncated poset.

The name-entry sentinel :data:`ONE` stands for "the greatest element" in a
poset-independent way, so check-names built from pure sets need no poset.
Every consumer resolves it to the ambient poset's top.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Hashable
from typing import Iterable, Optional, Sequence

from .errors import (
    InvalidInput,
    TruncationEscape,
    UnknownCondition,
    check_natural,
    described,
    pass_on_callers,
    takes,
)
from .hf import HF, _kuratowski, nat


class _TopSentinel:
    """Poset-independent stand-in for the greatest element of any poset."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "1"


ONE = _TopSentinel()


def canon_key(obj) -> tuple:
    """Total order key over every condition representation in the package."""
    if obj is ONE:
        return (0,)
    if isinstance(obj, int):
        return (1, obj)
    if isinstance(obj, str):
        return (2, obj)
    if isinstance(obj, HF):
        return (3, obj.key())
    if isinstance(obj, tuple):
        return (4, len(obj), tuple(canon_key(x) for x in obj))
    if isinstance(obj, frozenset):
        return (5, len(obj), tuple(sorted(canon_key(x) for x in obj)))
    raise UnknownCondition(f"no canonical key for {type(obj).__name__}")


def _bits(m: int):
    """The indices of the set bits of the mask m, ascending."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


class Poset:
    """Poset interface: condition validity, order, compatibility, bounded
    enumeration, and canonical encodings.

    Each kind defines ``is_condition``, ``_le``, ``_compatible``,
    ``_compile``, ``_size``, ``_condition_hf`` and ``condition_repr``.
    :meth:`resolve` is the one condition validator: it maps ONE to the top
    and raises a ``ForceLabError`` for anything that is not a condition.
    The public per-condition methods (``le``, ``compatible``, ``index_of``,
    ``condition_hf``) pass each argument through it once and then call the
    kind's ``_le``, ``_compatible`` or ``_condition_hf``, which take
    conditions already known to be valid; ``condition_repr`` shows a
    condition already validated, with no check, as report serialization
    calls it once per entry of each distinct subname.
    Enumerations run on the poset's :class:`Kernel`, compiled once on first
    use by the kind's ``_compile``, which lists the truncation in canonical
    order with its down-set masks, read off the kind's structure; a
    condition is inside the truncation exactly when the kernel indexes it.
    ``_size`` counts the truncation's conditions without compiling it, and
    both raise TruncationEscape when there is no truncation.
    Every kind's truncation is an up-set: what a condition inside it
    extends is inside it too.  So the kernel never asks ``_le`` or
    ``_compatible``; only the public ``le`` and ``compatible`` do.
    """

    kind = "abstract"
    top = None  # type: object | None
    _kernel = None  # type: Kernel | None

    # -- structure ---------------------------------------------------------

    def resolve(self, c):
        """The condition c stands for: ONE maps to the top (InvalidInput
        when there is none), and anything else must be a condition of this
        poset (UnknownCondition otherwise)."""
        if c is ONE:
            if self.top is None:
                raise InvalidInput(f"{self.kind} poset has no greatest element")
            return self.top
        if not self.is_condition(c):
            raise UnknownCondition(
                f"not a condition of this {self.kind} poset: {described(c)}")
        return c

    def le(self, p, q) -> bool:
        """p extends q."""
        return self._le(self.resolve(p), self.resolve(q))

    def compatible(self, p, q) -> bool:
        """Some condition extends both p and q."""
        return self._compatible(self.resolve(p), self.resolve(q))

    def conditions(self) -> tuple:
        """All conditions inside the truncation, canonically sorted: the
        kernel's own objects."""
        return self.kernel().conds

    def _compat(self, k: "Kernel") -> tuple[int, ...]:
        """The kernel's compatibility masks.  Two conditions are compatible
        when some minimal condition extends both; that needs a truncation
        holding a common extension of any two compatible conditions, which
        every kind but the choice poset has."""
        up = dict.fromkeys(k.minimals, 0)
        for j, m in enumerate(k.down):
            for a in _bits(m & k.minimal):
                up[a] |= 1 << j
        out = []
        for m in k.down:
            c = 0
            for a in _bits(m & k.minimal):
                c |= up[a]
            out.append(c)
        return tuple(out)

    def _codes(self, conds: tuple) -> tuple[HF, ...]:
        """The encodings of the truncation's conditions, in order."""
        return tuple(map(self._condition_hf, conds))

    def kernel(self) -> "Kernel":
        """The compiled order of the truncation, built on first use."""
        if self._kernel is None:
            self._kernel = Kernel(self)
        return self._kernel

    # -- truncation --------------------------------------------------------

    def index_of(self, c) -> int:
        """The kernel index of the condition c stands for (see
        :meth:`Kernel.find`); raises TruncationEscape for a condition
        outside the truncation.  Before the kernel is compiled, c is
        validated first, so a non-condition gets its code even when there
        is no truncation."""
        if self._kernel is None:
            self.resolve(c)
        i = self.kernel().find(c)
        if i is None:
            raise TruncationEscape(
                f"condition lies outside the declared truncation: "
                f"{self.condition_repr(c)}")
        return i

    def minimal_conditions(self) -> tuple:
        """Conditions with no proper extension inside the truncation."""
        k = self.kernel()
        return tuple(k.conds[a] for a in k.minimals)

    # -- encodings ---------------------------------------------------------

    def condition_hf(self, c) -> HF:
        """The hereditarily finite set encoding the condition c stands for."""
        return self._condition_hf(self.resolve(c))

    def condition_key(self, c) -> tuple:
        """Canonical sort key of a condition already validated (no check
        here)."""
        return canon_key(c)


class Kernel:
    """A poset's truncation compiled once: conditions numbered in canonical
    order, with order and compatibility as Python-int bit masks.

    ``down[i]`` has bit j set when condition j extends condition i; the
    conditions and ``down`` come from the kind's ``_compile``, which reads
    them off its structure.
    ``minimal`` masks the conditions with no proper extension (``minimals``
    lists them) and ``top`` is the index of the greatest element, or None.
    ``compat`` and ``codes`` are built on first use.  The forcing
    routes keep their state for formulas without a name space in
    ``forcer`` (a name space holds its own), and names' entry masks and
    values in ``entry_masks`` and ``value``, so all of it lives and dies
    with the poset.
    """

    def __init__(self, poset: Poset):
        conds, down = poset._compile()
        self.poset = poset
        self.conds = conds
        self.down = down
        self.index = {c: i for i, c in enumerate(conds)}
        self.minimals = tuple(i for i, m in enumerate(down) if m == 1 << i)
        self.minimal = sum(1 << i for i in self.minimals)
        self.full = (1 << len(conds)) - 1
        self.top = self.index.get(poset.top)
        self.forcer = None  # forcing._Forcer, built on first use
        # Not functools.cached_property: on CPython 3.11 its first store
        # makes every later attribute load on the kernel several times slower.
        self._compat: Optional[tuple[int, ...]] = None
        self._codes: Optional[tuple[HF, ...]] = None
        self._entries: dict = {}
        self._values: dict = {}

    @property
    def compat(self) -> tuple[int, ...]:
        """``compat[i]`` has bit j set when conditions i and j are
        compatible in the poset (not only inside the truncation)."""
        if self._compat is None:
            self._compat = self.poset._compat(self)
        return self._compat

    @property
    def codes(self) -> tuple[HF, ...]:
        """``codes[i]`` is ``condition_hf(conds[i])``."""
        if self._codes is None:
            self._codes = self.poset._codes(self.conds)
        return self._codes

    def none_below(self, x: int) -> int:
        """The conditions with no extension in the mask x."""
        out = 0
        for i, d in enumerate(self.down):
            if not d & x:
                out |= 1 << i
        return out

    def dense(self, x: int) -> int:
        """The conditions below which the mask x is dense."""
        return self.none_below(self.none_below(x))

    def find(self, c) -> Optional[int]:
        """The index of the condition c stands for, None outside the
        truncation.  Only the very object the kernel indexes skips
        ``resolve``, which refuses an equal copy such as ``(1.0, x)`` for
        ``(1, x)`` and an unhashable c."""
        try:
            i = self.index.get(c)
        except TypeError:
            i = None
        if i is not None and self.conds[i] is c:
            return i
        return self.index.get(self.poset.resolve(c))

    def below(self, c) -> int:
        """The mask of the conditions extending c, a name entry's condition:
        ONE or any condition, inside the truncation or not.  As a name entry
        ONE is in every filter, so it covers every condition even with no
        top.  A condition outside the truncation gets 0: the truncation is
        an up-set (see :class:`Poset`)."""
        if c is ONE:
            return self.full
        i = self.find(c)
        return 0 if i is None else self.down[i]

    def entry_masks(self, tau) -> tuple:
        """A name's sorted entries as (mask below the condition, child)."""
        out = self._entries.get(tau)
        if out is None:
            out = self._entries[tau] = tuple(
                (self.below(c), child) for c, child in tau.sorted_entries())
        return out

    def value(self, tau, i: int) -> HF:
        """tau's value along the filter generated by condition i: the values
        of the children whose entry mask has bit i."""
        memo = self._values
        out = tau.value if tau.value is not None else memo.get((tau, i))
        if out is None:
            out = memo[tau, i] = HF(self.value(s, i) for m, s
                                    in self.entry_masks(tau) if m >> i & 1)
        return out


# ---------------------------------------------------------------------------
# explicit finite posets


@takes(elements=[str], order=[tuple], top=str)
class ExplicitPoset(Poset):
    """A finite poset given by an element list and generating order pairs.

    The order is the reflexive transitive closure of the given pairs; the
    element list order fixes the canonical encoding of each element.
    """

    kind = "explicit"

    def __init__(self, elements: Sequence[str], order: Iterable[tuple[str, str]],
                 top: Optional[str] = None):
        if len(set(elements)) != len(elements):
            raise InvalidInput("duplicate elements in explicit poset")
        if not elements:
            raise InvalidInput("explicit poset needs at least one element")
        self._elements = elements
        self._index = index = {e: i for i, e in enumerate(elements)}
        # down[i] masks the elements below element i: the pairs, closed
        # reflexively and transitively (Warshall's algorithm on bit masks).
        down = [1 << i for i in range(len(elements))]
        try:
            for a, b in order:
                if a not in index or b not in index:
                    raise InvalidInput(
                        f"order pair uses unknown element: {a} < {b}")
                down[index[b]] |= 1 << index[a]
        except (TypeError, ValueError):
            raise InvalidInput(
                "order must list (lower, upper) element pairs") from None
        for j, dj in enumerate(down):
            for i, di in enumerate(down):
                if di >> j & 1:
                    down[i] = di | dj
        # Two elements below each other have one down-set, and conversely.
        classes: dict[int, list[int]] = {}
        for i, m in enumerate(down):
            classes.setdefault(m, []).append(i)
        loop = min((c for c in classes.values() if len(c) > 1), default=None)
        if loop is not None:
            raise InvalidInput("order is not antisymmetric: "
                               f"{elements[loop[0]]}, {elements[loop[1]]}")
        self._down = tuple(down)
        full = (1 << len(elements)) - 1
        if top is None:
            maxima = [e for e, m in zip(elements, down) if m == full]
            if len(maxima) != 1:
                raise InvalidInput("explicit poset requires a greatest element")
            top = maxima[0]
        else:
            if top not in index:
                raise InvalidInput(f"unknown top element {top!r}")
            if down[index[top]] != full:
                raise InvalidInput(f"{top!r} is not above every element")
        if top != "1" and "1" in index:
            raise InvalidInput('"1" is reserved for the greatest element')
        self.top = top

    def is_condition(self, c) -> bool:
        return isinstance(c, str) and c in self._index

    def _le(self, p, q) -> bool:
        return bool(self._down[self._index[q]] >> self._index[p] & 1)

    def _compatible(self, p, q) -> bool:
        return bool(self._down[self._index[p]] & self._down[self._index[q]])

    def _size(self) -> int:
        return len(self._elements)

    def _compile(self) -> tuple[tuple, tuple[int, ...]]:
        return self._elements, self._down

    def _condition_hf(self, c) -> HF:
        return nat(self._index[c])

    def condition_repr(self, c) -> str:
        return c

    def condition_key(self, c) -> tuple:
        return (self._index[c],)


# ---------------------------------------------------------------------------
# families of sets and the level poset used for the antichain correspondence


@takes(blocks=[tuple])
class Family:
    """A finite family of finite, nonempty, pairwise disjoint sets."""

    def __init__(self, blocks: Iterable[tuple[str, Iterable[HF]]]):
        labels = []
        sets = []
        try:
            for label, values in blocks:
                if label == "1":
                    raise InvalidInput(
                        '"1" is reserved and cannot label a block')
                vs = frozenset(values)
                if not vs:
                    raise InvalidInput(f"block {label!r} is empty")
                for v in vs:
                    if not isinstance(v, HF):
                        raise InvalidInput(f"block {label!r} holds "
                                           f"{described(v)}, not an HF set")
                labels.append(label)
                sets.append(vs)
            distinct = len(set(labels)) == len(labels)
        except (TypeError, ValueError) as e:
            pass_on_callers(e)
            raise InvalidInput("a family lists (label, elements) blocks of "
                               "HF sets") from None
        if not distinct:
            raise InvalidInput("duplicate block labels")
        if not labels:
            raise InvalidInput("family needs at least one block")
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                if sets[i] & sets[j]:
                    raise InvalidInput(
                        f"blocks {labels[i]!r} and {labels[j]!r} overlap")
        self.labels: tuple[str, ...] = tuple(labels)
        self.blocks: dict[str, frozenset[HF]] = dict(zip(labels, sets))
        self._block_of: dict[HF, str] = {
            v: label for label, vs in self.blocks.items() for v in vs}

    def block_of(self, x: HF) -> Optional[str]:
        return self._block_of.get(x)

    def sorted_block(self, label: str) -> tuple[HF, ...]:
        return tuple(sorted(self.blocks[label], key=HF.key))

    def __repr__(self):
        parts = ", ".join(
            f"{lab}: {{{','.join(map(repr, self.sorted_block(lab)))}}}"
            for lab in self.labels)
        return f"Family({parts})"


@takes(family=Family)
class FlatPoset(ExplicitPoset):
    """The flat poset over a family: one condition per block label, all
    incomparable, plus a greatest element."""

    kind = "flat"

    def __init__(self, family: Family):
        self.family = family
        super().__init__([*family.labels, "1"],
                         [(lab, "1") for lab in family.labels], "1")


@takes(family=Family, level_bound=int)
class ChoicePoset(Poset):
    """Levels-by-blocks poset: conditions are (level, x) with x in some block;
    (n, x) properly extends (m, y) iff n > m and x, y share a block.

    There is no greatest element.  Compatibility is exactly "same block",
    since two conditions over one block always share a deeper extension.
    """

    kind = "choice"
    top = None

    def __init__(self, family: Family, level_bound: Optional[int] = None):
        if level_bound is not None:
            check_natural(level_bound, "level bound", 1)
        self.family = family
        self.level_bound = level_bound

    def is_condition(self, c) -> bool:
        return _block(self.family, c) is not None

    def _le(self, p, q) -> bool:
        return p == q or p[0] > q[0] and \
            self.family.block_of(p[1]) == self.family.block_of(q[1])

    def _compatible(self, p, q) -> bool:
        return p == q or self.family.block_of(p[1]) == self.family.block_of(q[1])

    def _levels(self) -> int:
        if self.level_bound is None:
            raise TruncationEscape("choice poset has no declared level bound")
        return self.level_bound

    def _size(self) -> int:
        return self._levels() * len(self.family._block_of)

    def _compile(self) -> tuple[tuple, tuple[int, ...]]:
        levels = self._levels()
        xs = sorted(self.family._block_of, key=HF.key)  # every element
        blocks = [self.family.block_of(x) for x in xs]
        conds = tuple((n, x) for n in range(levels) for x in xs)
        # (n, x) lies above itself and every condition of a deeper level
        # over x's block; levels are met from the deepest up.
        width = len(xs)
        down = [0] * len(conds)
        deeper = dict.fromkeys(self.family.labels, 0)
        for n in reversed(range(levels)):
            for j, block in enumerate(blocks):
                down[n * width + j] = 1 << n * width + j | deeper[block]
            for j, block in enumerate(blocks):
                deeper[block] |= 1 << n * width + j
        return conds, tuple(down)

    def _compat(self, k: "Kernel") -> tuple[int, ...]:
        # Same block is compatible, even where every common extension lies
        # past the level bound.
        same: dict[str, int] = {}
        for i, (_, x) in enumerate(k.conds):
            block = self.family.block_of(x)
            same[block] = same.get(block, 0) | 1 << i
        return tuple(same[self.family.block_of(x)] for _, x in k.conds)

    def _condition_hf(self, c) -> HF:
        return _kuratowski(nat(c[0]), c[1])

    def condition_repr(self, c) -> str:
        return f"({c[0]},{c[1]!r})"


def _block(family: Family, c) -> Optional[str]:
    """The block of c when c is a condition of the family's choice poset."""
    ok = isinstance(c, tuple) and len(c) == 2 and _is_nat(c[0])
    return family._block_of.get(c[1]) if ok and isinstance(c[1], HF) else None


def _one_per_block(family: Family, conditions) -> Optional[dict]:
    """The one rule for "exactly one element per block": the element that
    conditions of the family's choice poset pick in each block, or None.
    Each member is checked, as ``resolve`` checks it, in the one pass."""
    picked, count = {}, 0
    for count, c in enumerate(conditions, 1):
        block = _block(family, c)
        if block is None:
            ChoicePoset(family).resolve(c)  # refuses c
        picked[block] = c[1]
    return picked if count == len(picked) == len(family.labels) else None


# ---------------------------------------------------------------------------
# partial-function posets (reverse inclusion)


def is_map(pairs, injective: bool = False) -> bool:
    """Are the entries (u, v) pairs forming a partial function, one-to-one
    when injective is set?"""
    image: dict = {}
    for entry in pairs:
        if not (isinstance(entry, tuple) and len(entry) == 2):
            return False
        u, v = entry
        if image.setdefault(u, v) != v:
            return False
    return not injective or len(set(image.values())) == len(image)


def _is_nat(x) -> bool:
    """Is x a natural?  Like ``check_natural``, a bool is not one."""
    return type(x) is int and x >= 0


def _is_item(x) -> bool:
    """Is x a natural or a frozenset of naturals, the values a map poset
    may declare as items?  Among them equal objects are the same item."""
    return _is_nat(x) or (type(x) is frozenset and all(map(_is_nat, x)))


def is_injection(pairs) -> bool:
    """Are the entries pairs of naturals forming a finite injection?"""
    return is_map(pairs, injective=True) and \
        all(_is_nat(u) and _is_nat(v) for u, v in pairs)


@takes(dom_items=[object], cod_items=[object], dom_window=[object],
       cod_window=[object])
class MapPoset(Poset):
    """Finite partial maps ordered by reverse inclusion.

    ``dom_items`` / ``cod_items`` of None mean the naturals; an explicit
    tuple means both the universe of valid items and the truncation window.
    A declared item is a natural or a frozenset of naturals, so the kernel,
    which indexes conditions by equality, never merges two items.
    ``dom_window`` / ``cod_window`` restrict enumeration to some of the
    items (needed when the universe is infinite); an item outside the
    universe is refused, so every map in the window is a condition.
    """

    kind = "fn"
    injective = False
    top = frozenset()

    def __init__(self, dom_items=None, cod_items=None,
                 dom_window=None, cod_window=None):
        self.dom_items, self.cod_items = dom_items, cod_items
        self.dom_window = dom_items if dom_window is None else dom_window
        self.cod_window = cod_items if cod_window is None else cod_window
        for x in (self.dom_items or ()) + (self.cod_items or ()):
            if not _is_item(x):
                raise InvalidInput(
                    f"item {described(x)} of this {self.kind} poset is "
                    "not a natural or a set of naturals")
        for window, items in ((self.dom_window, self.dom_items),
                              (self.cod_window, self.cod_items)):
            for x in window or ():
                if not self._valid_item(x, items):
                    raise InvalidInput(
                        f"window item {described(x)} is not an item "
                        f"of this {self.kind} poset")

    @staticmethod
    def _valid_item(x, items) -> bool:
        if items is None:
            return _is_nat(x)
        return _is_item(x) and x in items

    def is_condition(self, c) -> bool:
        return isinstance(c, frozenset) and is_map(c, self.injective) and all(
            self._valid_item(u, self.dom_items)
            and self._valid_item(v, self.cod_items) for u, v in c)

    def _le(self, p, q) -> bool:
        return p >= q

    def _compatible(self, p, q) -> bool:
        return is_map(p | q, self.injective)

    def _windows(self) -> tuple[set, set]:
        """The window's distinct domain and value items."""
        if self.dom_window is None or self.cod_window is None:
            raise TruncationEscape(
                f"{self.kind} poset has no declared truncation window")
        return set(self.dom_window), set(self.cod_window)

    def _size(self) -> int:
        d, c = map(len, self._windows())
        return sum(math.comb(d, k) * (math.perm(c, k) if self.injective
                                      else c ** k) for k in range(d + 1))

    def _compile(self) -> tuple[tuple, tuple[int, ...]]:
        doms, cods = (sorted(w, key=canon_key) for w in self._windows())
        # canon_key order: by size, then by the sorted entries, which for a
        # map sort by domain item.  Growing each map of one size, in order,
        # by each entry (u, v) with u after its domain, in (u, v) order,
        # lists the next size in order.
        conds = [frozenset()]
        frontier = [(conds[0], 0)]  # (map, position in doms of its next item)
        while frontier:
            grown = []
            for c, start in frontier:
                taken = {v for _, v in c} if self.injective else ()
                for at in range(start, len(doms)):
                    for v in cods:
                        if v not in taken:
                            d = c | {(doms[at], v)}
                            conds.append(d)
                            grown.append((d, at + 1))
            frontier = grown
        # Reverse inclusion: the maps below c are those holding every entry
        # of c.
        having: dict = {}
        for i, c in enumerate(conds):
            for e in c:
                having[e] = having.get(e, 0) | 1 << i
        full = (1 << len(conds)) - 1
        down = []
        for c in conds:
            m = full
            for e in c:
                m &= having[e]
            down.append(m)
        return tuple(conds), tuple(down)

    def _entry_hf(self, u, v) -> HF:
        return _kuratowski(nat(u), nat(v))

    def _condition_hf(self, c) -> HF:
        return HF(self._entry_hf(u, v) for u, v in c)

    def _codes(self, conds: tuple) -> tuple[HF, ...]:
        # One code per distinct entry: every map in the window is a union
        # of the singletons, which hold each entry once.
        entry = {}
        for c in conds:
            if len(c) == 1:
                (e,) = c
                entry[e] = self._entry_hf(*e)
        return tuple(HF(map(entry.__getitem__, c)) for c in conds)

    def _item_repr(self, x) -> str:
        if isinstance(x, frozenset):
            return "{" + ",".join(str(v) for v in sorted(x)) + "}"
        return str(x)

    def condition_repr(self, c) -> str:
        pairs = sorted(c, key=canon_key)
        return "{" + ",".join(
            f"{self._item_repr(u)}->{self._item_repr(v)}" for u, v in pairs) + "}"


class InjPoset(MapPoset):
    """Finite injective partial maps ordered by reverse inclusion."""

    kind = "inj"
    injective = True


def _windows(dom_bound: int, cod_bound: int) -> dict:
    return {"dom_window": tuple(range(check_natural(dom_bound, "dom bound"))),
            "cod_window": tuple(range(check_natural(cod_bound, "cod bound")))}


@takes(dom_bound=int, cod_bound=int)
def fn_omega_omega(dom_bound: int, cod_bound: int) -> MapPoset:
    """Fn over the naturals, truncated to a dom_bound x cod_bound window."""
    return MapPoset(**_windows(dom_bound, cod_bound))


@takes(dom_bound=int, cod_bound=int)
def inj_omega_omega(dom_bound: int, cod_bound: int) -> InjPoset:
    """Inj over the naturals, truncated to a dom_bound x cod_bound window."""
    return InjPoset(**_windows(dom_bound, cod_bound))


@takes(cols=int, rows=int)
class CohenGridPoset(MapPoset):
    """Finite partial 0/1 assignments on a cols x rows cell grid.

    Conditions are finite maps from (column, row) cells to bits; the grid
    dimensions are the truncation window of the untruncated cell poset.
    """

    kind = "cohen"
    injective = False

    def __init__(self, cols: int, rows: int):
        self.cols = check_natural(cols, "cols", 1)
        self.rows = check_natural(rows, "rows", 1)
        # The cells are not naturals, so MapPoset's item check does not
        # apply: is_condition below decides a cell.
        self.dom_items = self.cod_items = None
        self.dom_window = tuple(
            (c, r) for c in range(cols) for r in range(rows))
        self.cod_window = (0, 1)

    @staticmethod
    def is_condition(c) -> bool:
        """Is c a finite map from cells to bits (on any grid)?"""
        return isinstance(c, frozenset) and is_map(c) and all(
            isinstance(cell, tuple) and len(cell) == 2
            and _is_nat(cell[0]) and _is_nat(cell[1])
            and _is_nat(bit) and bit < 2
            for cell, bit in c)

    def _entry_hf(self, cell, bit) -> HF:
        return _kuratowski(_kuratowski(nat(cell[0]), nat(cell[1])), nat(bit))

    def condition_repr(self, c) -> str:
        pairs = sorted(c, key=canon_key)
        return "{" + ",".join(
            f"({cell[0]},{cell[1]})={bit}" for cell, bit in pairs) + "}"


@takes(depth=int)
class BinaryTreePoset(Poset):
    """Finite binary strings ordered by reverse extension; the empty string
    is the greatest element."""

    kind = "binary"
    top = ""

    def __init__(self, depth: int):
        self.depth = check_natural(depth, "depth", 1)

    def is_condition(self, c) -> bool:
        return isinstance(c, str) and all(ch in "01" for ch in c)

    def _le(self, p, q) -> bool:
        return p.startswith(q)

    def _compatible(self, p, q) -> bool:
        return p.startswith(q) or q.startswith(p)

    def _size(self) -> int:
        return 2 ** (self.depth + 1) - 1

    def _compile(self) -> tuple[tuple, tuple[int, ...]]:
        conds = [""]
        for k in range(1, self.depth + 1):
            conds.extend(map("".join, itertools.product("01", repeat=k)))
        # Heap order: the children of string i are 2i + 1 and 2i + 2, so
        # one bottom-up pass or-s each string's down-set into its parent's.
        down = [1 << i for i in range(len(conds))]
        for i in range(len(conds) - 1, 0, -1):
            down[(i - 1) // 2] |= down[i]
        return tuple(conds), tuple(down)

    def _condition_hf(self, c) -> HF:
        return HF(_kuratowski(nat(i), nat(int(b))) for i, b in enumerate(c))

    def _codes(self, conds: tuple) -> tuple[HF, ...]:
        # One code per position and bit.
        at = [{b: _kuratowski(nat(i), nat(int(b))) for b in "01"}
              for i in range(self.depth)]
        return tuple(HF(at[i][b] for i, b in enumerate(c)) for c in conds)

    def condition_repr(self, c) -> str:
        return f"|{c}|"

    def condition_key(self, c) -> tuple:
        return (len(c), c)


# ---------------------------------------------------------------------------
# filters


@takes(poset=Poset, conditions=[Hashable])
class Filter:
    """A finite, explicitly listed filter on a poset."""

    def __init__(self, poset: Poset, conditions: Iterable):
        self.poset = poset
        self.conditions = frozenset(conditions)

    def __eq__(self, other) -> bool:
        return isinstance(other, Filter) and self.poset is other.poset \
            and self.conditions == other.conditions

    def __hash__(self) -> int:
        return hash(self.conditions)

    def __contains__(self, c) -> bool:
        """Whether c is in the filter.  Like any other object that is not a
        condition, an unhashable c is not in it, nor is an equal copy that
        ``resolve`` refuses, such as ``(1.0, x)`` for ``(1, x)``; only the
        kernel's own object skips the check, as in :meth:`Kernel.find`."""
        try:
            if c is ONE or c not in self.conditions:
                return c is ONE
            k = self.poset._kernel
            i = None if k is None else k.index.get(c)
            return i is not None and k.conds[i] is c or \
                self.poset.is_condition(c)
        except TypeError:
            return False

    def __repr__(self):
        items = ",".join(self.poset.condition_repr(c)
                         for c in sorted(self.conditions,
                                         key=self.poset.condition_key))
        return f"Filter({items})"

    def is_upward_closed(self) -> bool:
        mask = _mask(self.poset, self.conditions)
        return all(mask >> q & 1
                   for q, m in enumerate(self.poset.kernel().down) if m & mask)

    def is_directed(self) -> bool:
        mask = _mask(self.poset, self.conditions)
        downs = [m for q, m in enumerate(self.poset.kernel().down)
                 if mask >> q & 1]
        return all(a & b & mask for a in downs for b in downs)

    def is_filter(self) -> bool:
        return bool(self.conditions) and self.is_upward_closed() and self.is_directed()


# ---------------------------------------------------------------------------
# module operations


def _mask(poset: Poset, conditions: Iterable) -> int:
    """The kernel mask of some conditions, each checked once by index_of.
    Bits are or-ed, not summed, since a condition may be listed twice."""
    mask = 0
    for c in conditions:
        mask |= 1 << poset.index_of(c)
    return mask


@takes(poset=Poset, conditions=[object])
def is_maximal_antichain(poset: Poset, conditions: Iterable) -> bool:
    """Antichain that every condition is compatible with: on the choice
    poset one element per block, which needs no truncation, and on other
    finite (or truncated) posets read off the kernel's compatibility masks."""
    if isinstance(poset, ChoicePoset):
        return _one_per_block(poset.family, conditions) is not None
    idx = [poset.index_of(c) for c in conditions]
    k = poset.kernel()
    mask = covered = 0
    for i in idx:
        if k.compat[i] & mask:  # compat[i] has bit i, so repeats fail too
            return False
        mask |= 1 << i
        covered |= k.compat[i]
    return covered == k.full


@takes(poset=Poset, dense_set=[object])
def is_dense(poset: Poset, dense_set: Iterable) -> bool:
    """Every condition has an extension in the set."""
    mask = _mask(poset, dense_set)
    return all(m & mask for m in poset.kernel().down)


@takes(poset=ChoicePoset)
def enumerate_maximal_antichains(poset: ChoicePoset) -> list[frozenset]:
    """All maximal antichains of the choice poset's truncation in kernel
    order: one (level, element) pick per block, below the level bound."""
    k = poset.kernel()
    per_block: dict[str, list] = {label: [] for label in poset.family.labels}
    for i, (_, x) in enumerate(k.conds):
        per_block[poset.family.block_of(x)].append(i)
    picks = sorted(map(sorted, itertools.product(*per_block.values())))
    return [frozenset(map(k.conds.__getitem__, pick)) for pick in picks]


@takes(poset=Poset)
def generic_filter(poset: Poset, seed) -> Filter:
    """The filter generated by the canonically first minimal condition
    extending seed; on a finite poset such a filter meets every dense set."""
    i = poset.index_of(seed)
    k = poset.kernel()
    below = k.minimal & k.down[i]
    a = (below & -below).bit_length() - 1
    return Filter(poset, (q for q, m in zip(k.conds, k.down) if m >> a & 1))
