"""First-order formulas with membership, equality, and bounded quantifiers.

Terms are variables or name constants.  Quantifiers carry one of three
bounds so that both satisfaction and the forcing relation stay decidable:

* ``InName(tau)``  - the variable ranges over the members of eval(tau);
* ``RankLE(k)``    - it ranges over the values of all ambient names of rank
  at most k;
* ``OrdLT(k)``     - it ranges over the von Neumann naturals below k.
"""

from __future__ import annotations

from typing import Union

from .errors import InvalidInput, check_natural
from .hf import unique_table
from .names import PName

# The unique table: every live term, bound and formula node, keyed by
# (class, *fields), held weakly like HF sets and names.
_UNIQUE, _enter = unique_table()


class _Node:
    """An immutable syntax node with the fields named in ``_fields``.

    Nodes are interned: constructing a node equal to a live one returns
    that object, so equality is identity and the hash is the identity hash,
    and copying and pickling return the interned node.
    """

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def __new__(cls, *args):
        key = (cls, *args)
        ref = _UNIQUE.get(key)
        node = None if ref is None else ref()
        if node is None:
            if len(args) != len(cls._fields):
                raise TypeError(
                    f"{cls.__name__}() takes {len(cls._fields)} arguments "
                    f"({', '.join(cls._fields)}), got {len(args)}")
            node = object.__new__(cls)
            for field, value in zip(cls._fields, args):
                setattr(node, field, value)
            node._setup()
            _enter(key, node)
        return node

    def _setup(self) -> None:
        """Check the fields and fill derived slots once they are set; it
        runs only when a node is first built, so a lookup pays nothing."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


def _refuse(node: _Node, value, kind: str):
    raise InvalidInput(
        f"{type(node).__name__} takes {kind}, not {value!r}")


class Var(_Node):
    __slots__ = ("name",)
    _fields = ("name",)

    def _setup(self) -> None:
        if not isinstance(self.name, str):
            _refuse(self, self.name, "a str")


class _Named(_Node):
    """A node holding one name."""

    __slots__ = ("name",)
    _fields = ("name",)

    def _setup(self) -> None:
        if not isinstance(self.name, PName):
            _refuse(self, self.name, "a PName")


class Cname(_Named):
    """A name constant."""

    __slots__ = ()


Term = Union[Var, Cname]


class InName(_Named):
    __slots__ = ()


class _NatBound(_Node):
    """A bound by a natural number; a negative one is refused."""

    __slots__ = ("bound",)
    _fields = ("bound",)

    def _setup(self) -> None:
        check_natural(self.bound, "a quantifier bound")


class RankLE(_NatBound):
    __slots__ = ()


class OrdLT(_NatBound):
    __slots__ = ()


Bound = Union[InName, RankLE, OrdLT]


class _Formula(_Node):
    """A formula node; ``free`` holds its free variables and ``order`` the
    same variables sorted, the order in which the forcing routes key a mask
    by the names bound to them.  Both are computed once, when the node is
    built."""

    __slots__ = ("free", "order")

    def _setup(self) -> None:
        self.free = self._free()
        self.order = tuple(sorted(self.free))


class _Atom(_Formula):
    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def _setup(self) -> None:
        for term in (self.left, self.right):
            if not isinstance(term, (Var, Cname)):
                _refuse(self, term, "terms (Var or Cname)")
        super()._setup()

    def _free(self) -> frozenset[str]:
        return frozenset(t.name for t in (self.left, self.right)
                         if isinstance(t, Var))


class Member(_Atom):
    __slots__ = ()


class Eq(_Atom):
    __slots__ = ()


class Not(_Formula):
    __slots__ = ("body",)
    _fields = ("body",)

    def _free(self) -> frozenset[str]:
        return free_vars(self.body)


class _Binary(_Formula):
    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def _free(self) -> frozenset[str]:
        return free_vars(self.left) | free_vars(self.right)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class _Quantifier(_Formula):
    __slots__ = ("var", "bound", "body")
    _fields = ("var", "bound", "body")

    def _setup(self) -> None:
        if not isinstance(self.var, str):
            _refuse(self, self.var, "a str variable")
        super()._setup()

    def _free(self) -> frozenset[str]:
        return free_vars(self.body) - {self.var}


class Exists(_Quantifier):
    __slots__ = ()


class Forall(_Quantifier):
    __slots__ = ()


Formula = Union[Member, Eq, Not, And, Or, Implies, Exists, Forall]


def disj(parts: list) -> "Formula":
    if not parts:
        raise InvalidInput("empty disjunction")
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def free_vars(phi: Formula) -> frozenset[str]:
    if not isinstance(phi, _Formula):
        raise InvalidInput(f"not a formula: {phi!r}")
    return phi.free


def is_closed(phi: Formula) -> bool:
    return not free_vars(phi)


def subst(phi: Formula, var: str, name: PName) -> Formula:
    """Substitute a name constant for every free occurrence of a variable."""
    if var not in free_vars(phi):
        return phi

    def sub_term(t: Term) -> Term:
        if isinstance(t, Var) and t.name == var:
            return Cname(name)
        return t

    if isinstance(phi, Member):
        return Member(sub_term(phi.left), sub_term(phi.right))
    if isinstance(phi, Eq):
        return Eq(sub_term(phi.left), sub_term(phi.right))
    if isinstance(phi, Not):
        return Not(subst(phi.body, var, name))
    if isinstance(phi, And):
        return And(subst(phi.left, var, name), subst(phi.right, var, name))
    if isinstance(phi, Or):
        return Or(subst(phi.left, var, name), subst(phi.right, var, name))
    if isinstance(phi, Implies):
        return Implies(subst(phi.left, var, name), subst(phi.right, var, name))
    return type(phi)(phi.var, phi.bound, subst(phi.body, var, name))


def constants(phi: Formula) -> frozenset[PName]:
    """All name constants appearing in a formula (atoms and bounds)."""
    if isinstance(phi, (Member, Eq)):
        return frozenset(t.name for t in (phi.left, phi.right)
                         if isinstance(t, Cname))
    if isinstance(phi, Not):
        return constants(phi.body)
    if isinstance(phi, (And, Or, Implies)):
        return constants(phi.left) | constants(phi.right)
    if isinstance(phi, (Exists, Forall)):
        inner = constants(phi.body)
        if isinstance(phi.bound, InName):
            inner = inner | {phi.bound.name}
        return inner
    raise InvalidInput(f"not a formula: {phi!r}")


def single_free_var(phi: Formula) -> str:
    fv = free_vars(phi)
    if len(fv) != 1:
        raise InvalidInput(f"expected exactly one free variable, got {sorted(fv)}")
    return next(iter(fv))
