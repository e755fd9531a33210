"""First-order formulas with membership, equality, and bounded quantifiers.

Terms are variables or name constants.  Quantifiers carry one of three
bounds so that both satisfaction and the forcing relation stay decidable:

* ``InName(tau)``  - the variable ranges over the members of eval(tau);
* ``RankLE(k)``    - it ranges over the values of all ambient names of rank
  at most k;
* ``OrdLT(k)``     - it ranges over the von Neumann naturals below k.
"""

from __future__ import annotations

from typing import Optional, Union

from .errors import InvalidInput, check_kind, check_natural, takes
from .hf import unique_table
from .names import PName

# The unique table: every live term, bound and formula node, keyed by
# (class, *fields), held weakly like HF sets and names.
_UNIQUE, _enter = unique_table()

MAX_NESTING = 850
_TOO_DEEP = "the formula or its names are nested too deeply to decide"


def _check_nesting(depth: int = 0, rank: int = 0) -> None:
    """The one nesting rule, applied before any recursion.  The forcing
    routes recurse two frames per level of a formula and about four per
    level of its names (``Kernel.value``, ``PName.key``), so a formula of
    this depth over names of this rank is refused when 2 x depth + 4 x rank
    passes :data:`MAX_NESTING`; one within it leaves about 130 of the
    default 1,000 frames to its caller."""
    if 2 * depth + 4 * rank > MAX_NESTING:
        raise InvalidInput(_TOO_DEEP)


class _Node:
    """An immutable syntax node.  ``_fields`` lists each field, in order,
    with its kind, the classes its value may have, and ``_kinds`` the kinds
    alone.  A value of another kind is refused by ``check_kind`` when the
    node is first built, so a lookup pays nothing.

    Nodes are interned: constructing a node equal to a live one returns
    that object, so equality is identity and the hash is the identity hash,
    and copying and pickling, which rebuild a node from its fields, return
    the interned node.
    """

    __slots__ = ("__weakref__",)
    _fields: tuple[tuple[str, type | tuple[type, ...]], ...] = ()

    def __new__(cls, *args):
        key = (cls, *args)
        try:
            ref = _UNIQUE.get(key)
        except TypeError:  # an unhashable value is of no declared kind
            ref = None
        if ref is not None and (node := ref()) is not None:
            return node
        if len(args) != len(cls._fields):
            raise TypeError(
                f"{cls.__name__}() takes {len(cls._fields)} arguments "
                f"({', '.join(f for f, _ in cls._fields)}), "
                f"got {len(args)}")
        if not all(map(isinstance, args, cls._kinds)):
            for (field, kind), value in zip(cls._fields, args):
                if not isinstance(value, kind):
                    check_kind(value, kind, cls.__name__, field)
        # Each class's _setup fills its fields and derived slots from the
        # checked values; it runs only when a node is first built.
        node = object.__new__(cls)
        node._setup(*args)
        _enter(key, node)
        return node

    def __init_subclass__(cls):
        cls._kinds = tuple(kind for _, kind in cls._fields)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f, _ in self._fields)

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}"
                           for f, _ in self._fields)
        return f"{type(self).__name__}({fields})"


class Var(_Node):
    __slots__ = ("name",)
    _fields = (("name", str),)

    def _setup(self, name) -> None:
        self.name = name


class _Named(_Node):
    """A node holding one name; ``rank`` is the name's, so a refusal
    describes the node by kind and rank as it would the name."""

    __slots__ = ("name",)
    _fields = (("name", PName),)

    def _setup(self, name) -> None:
        self.name = name

    @property
    def rank(self) -> int:
        return self.name.rank


class Cname(_Named):
    """A name constant."""

    __slots__ = ()


class InName(_Named):
    __slots__ = ()


class _NatBound(_Node):
    """A bound by a natural number.  It is checked before the lookup, as
    ``True`` or ``1.0`` would find a live bound of 1."""

    __slots__ = ("bound",)
    _fields = (("bound", int),)

    def __new__(cls, bound):
        return super().__new__(cls, check_natural(bound, "a quantifier bound"))

    def _setup(self, bound) -> None:
        self.bound = bound


class RankLE(_NatBound):
    __slots__ = ()


class OrdLT(_NatBound):
    __slots__ = ()


class _Formula(_Node):
    """A formula node; ``free`` holds its free variables and ``order`` the
    same variables sorted, the order in which the forcing routes key a mask
    by the names bound to them; ``depth`` is its nesting depth, 1 for an
    atom, and ``rank`` the largest rank of its ``Cname`` terms' and
    ``InName`` bounds' names, or 0.  All are derived from the field values
    once, when the node is built, the free variables less a quantifier's
    own variable; a node whose free variables are its body's, or both its
    sides', shares their ``free`` and ``order``."""

    __slots__ = ("free", "order", "depth", "rank")


class _Atom(_Formula):
    __slots__ = ("left", "right")
    _fields = (("left", (Var, Cname)), ("right", (Var, Cname)))

    def _setup(self, left, right) -> None:
        self.left, self.right, self.depth, self.rank = left, right, 1, 0
        free = []
        for t in (left, right):
            if isinstance(t, Var):
                free.append(t.name)
            elif t.name.rank > self.rank:
                self.rank = t.name.rank
        self.free = frozenset(free)
        self.order = tuple(sorted(self.free))


class Member(_Atom):
    __slots__ = ()


class Eq(_Atom):
    __slots__ = ()


class Not(_Formula):
    __slots__ = ("body",)
    _fields = (("body", _Formula),)

    def _setup(self, body) -> None:
        self.body, self.free, self.order = body, body.free, body.order
        self.depth, self.rank = body.depth + 1, body.rank


class _Binary(_Formula):
    __slots__ = ("left", "right")
    _fields = (("left", _Formula), ("right", _Formula))

    def _setup(self, left, right) -> None:
        self.left, self.right = left, right
        if left.free == right.free:
            self.free, self.order = left.free, left.order
        else:
            self.free = left.free | right.free
            self.order = tuple(sorted(self.free))
        self.depth = max(left.depth, right.depth) + 1
        self.rank = max(left.rank, right.rank)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class _Quantifier(_Formula):
    __slots__ = ("var", "bound", "body")
    _fields = (("var", str), ("bound", (InName, RankLE, OrdLT)),
               ("body", _Formula))

    def _setup(self, var, bound, body) -> None:
        self.var, self.bound, self.body = var, bound, body
        self.free, self.order = body.free, body.order
        if var in body.free:
            self.free, order = body.free - {var}, [*body.order]
            order.remove(var)
            self.order = tuple(order)
        self.depth, self.rank = body.depth + 1, body.rank
        if isinstance(bound, InName) and bound.name.rank > body.rank:
            self.rank = bound.name.rank


class Exists(_Quantifier):
    __slots__ = ()


class Forall(_Quantifier):
    __slots__ = ()


Formula = Union[Member, Eq, Not, And, Or, Implies, Exists, Forall]


@takes(parts=[_Formula])
def disj(parts) -> Formula:
    """The left-nested disjunction of an iterable of formulas."""
    if not parts:
        raise InvalidInput("empty disjunction")
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


@takes(phi=_Formula, var=str, name=PName)
def subst(phi: Formula, var: str, name: PName) -> Formula:
    """Substitute a name constant for every free occurrence of a variable,
    rebuilding each node that has one from its fields.  A formula whose
    2 x depth passes :data:`MAX_NESTING` is refused before any recursion."""
    _check_nesting(phi.depth)
    if var not in phi.free:
        return phi
    return type(phi)(*(
        _subst(v, var, name) if isinstance(v, _Formula)
        else Cname(name) if isinstance(v, Var) and v.name == var else v
        for v in phi._values()))


_subst = subst.__wrapped__  # undeclared, for the recursion above


def _leaves(phi: Formula):
    """The field values of phi and of its subformulas that are not
    formulas: terms, variable names and quantifier bounds, outermost
    first, each node's fields in order.  The walk keeps its own stack, so
    any depth is read."""
    stack = [phi]
    while stack:
        v = stack.pop()
        if isinstance(v, _Formula):
            stack.extend(reversed(v._values()))
        else:
            yield v


@takes(phi=_Formula)
def constants(phi: Formula) -> frozenset[PName]:
    """All name constants appearing in a formula (atoms and bounds)."""
    return frozenset(v.name for v in _leaves(phi)
                     if isinstance(v, _Named))


def max_rank_bound(phi: Formula) -> Optional[int]:
    """The largest ``RankLE`` bound in a formula; None when it has none."""
    return max((v.bound for v in _leaves(phi)
                if isinstance(v, RankLE)), default=None)


@takes(phi=_Formula)
def single_free_var(phi: Formula) -> str:
    fv = phi.free
    if len(fv) != 1:
        raise InvalidInput(f"expected exactly one free variable, got {sorted(fv)}")
    return next(iter(fv))
