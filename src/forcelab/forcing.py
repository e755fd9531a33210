"""The forcing relation over finite posets, decided two independent ways.

The semantic route computes [[phi]], the set of generic filters along which
phi holds, as a bit mask over the minimal conditions, since a finite poset's
generic filters are the filters at them: the Boolean-valued model.  Its
atoms compare names' values along those filters: a name its name space
assembled has them read off its class mask (``NameSpace._value``), and any
other name off the kernel's entry masks (``Kernel.value``).  The syntactic
route never reads a class mask.  It computes F(phi), the mask of all
conditions that force phi, by the forcing clauses applied to every
condition at once.  With none_below(X) the conditions with no
extension in X, and dense(X) = none_below(none_below(X)), negation is
none_below and conjunction is intersection; with m(tau) the conditions
where a name tau of the bound's range applies, the quantifier clauses are

    F(exists-x phi) = dense(union over tau of m(tau) & F(phi(tau))),
    F(forall-x phi) = none_below(union over tau of m(tau) & ~F(phi(tau))),

and the atomic clauses are the usual rank recursion for membership and
equality, on name pairs, with no name evaluated along a filter.  Between
check-names they reduce to the check-name lemma: every condition forces
x-check = y-check iff x = y, and x-check in y-check iff x in y, read off the
interned names as ``t1 is t2`` and ``(ONE, t1) in t2.entries``.  The routes
share the kernel, whose entry masks let ``Kernel.below`` alone decide
whether an entry's condition lies in a filter, and the name space, but no
table of their own; they agree on finite posets, and the test suite checks
that formula by formula.  A name space walks its classes only when a
reader first asks past its first name, the empty name, or asks its
length, so a quantifier that the empty name settles costs no walk.
Both decide an open formula under an environment, the names bound to its
free variables, so no quantifier instance is built by substitution.  An
input nested past :data:`MAX_NESTING` is refused before either recurses.
"""

from __future__ import annotations

import bisect
import itertools
import math
import weakref
from typing import Optional, Sequence

from .errors import (
    InvalidInput, NotMaximalBelow, PreconditionViolated, check_kind,
    check_natural, takes,
)
from .formulas import (
    And, Cname, Eq, Exists, Forall, Formula, Implies, InName, Member, Not, Or,
    RankLE, _Formula, _check_nesting, single_free_var,
)
from .formulas import subst  # noqa: F401  (perfbench's tracer wraps it here)
from .hf import HF, nat
from .names import PName, _check_name, _closure, _entry_key, _reach
from .names import eval_name  # noqa: F401  (perfbench's tracer wraps it here)
from .posets import Kernel, ONE, Poset, _bits, _not_maximal_below

# The most subsets of (condition, child) pairs a NameSpace admits; its walk
# visits only the first subset of each class.
MAX_UNIVERSE = 1 << 17


@takes(poset=Poset, base_names=[PName], rank_bound=int)
class NameSpace:
    """A finite, child-closed universe of names over a poset, one name per
    class of names with equal values along every filter.

    The names considered are the hereditary closure of the base names
    together with every name of rank at most ``rank_bound`` assembled in one
    layer from that closure: all sets of (condition, child) entries with
    children drawn from closure members of smaller rank.  Assembled entries
    use the ONE sentinel in place of the poset's top.  Two of these names
    are in one class when they evaluate equally along the filter generated
    by each condition; on a finite poset that is every filter, so the two
    are forced equal and interchangeable in any formula.  The universe
    keeps the first member of each class in canonical order
    (:meth:`PName.key`, rank first), so every ``RankLE`` range keeps the
    lowest-rank member of each class.  It also keeps the children of kept
    names, so that it stays child-closed: a base name, or a name inside
    one, that is not first in its class enters only that way.  So
    ``len(space)`` counts the classes, plus any such children.  The walk
    extends only the first subset of (condition, child) pairs of each
    class, so it takes about classes x pairs steps, not ``2^pairs``; the
    one bound over ``2^pairs`` is the cap, which refuses more than
    :data:`MAX_UNIVERSE` subsets with ``invalid-input`` before the poset
    is compiled.  The walk runs once, whole, the first time a reader asks
    past the empty name or asks ``len(space)``.  The empty name, the empty
    subset met first at rank 0, is always the first name, so the space
    holds it from construction, and a reader that it settles runs no walk.
    Construction refuses a negative rank bound, too deep a base name, the
    cap, and, through ``Kernel.entry_masks``, a closure entry's condition
    that ``resolve`` refuses.  A class's name is interned only when a reader
    first reaches it: the routes' ``RankLE`` ranges, :func:`mp_witness_search`,
    :meth:`names_of_rank_le` and ``in``, which stops at the name asked or past
    its rank, intern the universe as far as they read it; ``universe`` interns
    all of it, and ``len(space)`` nothing.

    A class mask is a set of (condition, value) bits, so it fixes its
    name's value along every filter.  The space keeps the mask of each
    name it has interned, and :meth:`_value` reads the semantic route's
    values of those names off it, building no name's value from its
    entries; a constant equal to a class not yet interned reads
    ``Kernel.value``, which gives the same interned set.
    """

    def __init__(self, poset: Poset, base_names: Sequence[PName],
                 rank_bound: int):
        check_natural(rank_bound, "rank bound")
        _check_nesting(rank=max((s.rank for s in base_names), default=0))
        self.base_names = base_names
        self.poset = poset
        self.rank_bound = rank_bound
        closure = _closure(self.base_names)
        eligible = [s for s in closure if s.rank < rank_bound]
        # The largest rank of its names: the closure's or an assembled one's.
        self._rank = max(closure[-1].rank if closure else 0,
                         eligible[-1].rank + 1 if eligible else 0)
        # The cap reads the truncation's size, so a refusal compiles
        # nothing: 2^n > MAX_UNIVERSE exactly when n reaches its bit length.
        n = (1 + poset._size() - (poset.top is not None)) * len(eligible)
        if n >= MAX_UNIVERSE.bit_length():
            raise InvalidInput(f"name space too large: 2^{n} assembled names")
        k = poset.kernel()
        # Construction refuses what the walk would: every closure name's
        # entries pass Kernel.entry_masks, so a condition that ``resolve``
        # refuses raises here and not at a read.
        for tau in closure:
            k.entry_masks(tau)
        self._k = k
        # The walk's inputs until ``_walk`` runs, then None.
        self._unwalked: Optional[tuple] = (closure, eligible)
        # The universe in order: each class as its (mask, first subset)
        # until ``_read`` interns its name there, and the few kept names
        # that were not assembled.  The empty subset, met first at rank 0,
        # heads it, so the empty name is read before the walk runs.
        self._order: list = [(0, ())]
        self._pairs: list = []
        self._masks: dict[PName, int] = {}
        self._unchecked: dict[PName, int] = {}
        # Bit b is the pair (condition index, value) it numbers; no bit is
        # numbered before the walk.
        self._of_bit: list[HF] = []
        self._at = [0] * len(k.conds)
        self._values: dict[int, HF] = {}
        # The routes' state for this space, built on first use.
        self.forcer: Optional[_Forcer] = None

    def _walk(self) -> None:
        """Meet every class of the space after the empty name and place
        the closure names kept, appending them to ``_order``."""
        closure, eligible = self._unwalked
        k = self._k
        pool = [ONE] + [c for c in k.conds if c != self.poset.top]
        pairs = [(c, s) for c in pool for s in eligible]
        pairs.sort(key=_entry_key)
        bits: dict[tuple[int, HF], int] = {}
        masks = [_pair_mask(k, bits, k.below(c), s) for c, s in pairs]
        ranks = [1 + s.rank for _, s in pairs]
        # A subset's rank is the largest of its pairs', so at each rank r
        # the subsets of the pairs of rank at most r are met by size, each
        # size in lexicographic order of sorted entry keys: the first subset
        # met for a new mask is the least in canonical order.  A mask first
        # met at rank r has rank exactly r, as the subsets of lower rank
        # were all met before, so the classes are met in canonical order
        # too, and the walk's order is the universe's.  Within a rank only
        # the first subset of each mask is extended, by pairs above its
        # last: the rest of a mask's first subset is the first subset of its
        # own mask (an earlier one, plus the last pair, would come before),
        # so the walk meets every mask's first subset, in order, in about
        # classes x pairs steps.
        best: dict = {}
        for r in sorted({0, *ranks}):
            below_r = [j for j, rank in enumerate(ranks) if rank <= r]
            seen = {0: ()}
            frontier = [((), 0, 0)]
            while frontier:
                grown = []
                for combo, mask, start in frontier:
                    for at in range(start, len(below_r)):
                        j = below_r[at]
                        m = mask | masks[j]
                        if m not in seen:
                            seen[m] = c = combo + (j,)
                            grown.append((c, m, at + 1))
                frontier = grown
            for m, combo in seen.items():
                best.setdefault(m, combo)
        # A closure name's class is keyed like an assembled one, by the OR
        # of its entries' pair masks; a pair no assembled entry contributes
        # gets a fresh bit, so its class has no assembled member.  It never
        # comes before an assembled name of its class: of rank at most the
        # bound, it is assembled itself unless it names the top, which ONE
        # undercuts, or a condition outside the truncation, in no filter.
        # Such first names and the children of kept names are kept too.
        roots = {pairs[j][1] for j in set().union(*best.values())}
        cls_of, kept = {}, {}
        for n in closure:
            cls = 0
            for m, s in k.entry_masks(n):
                cls |= _pair_mask(k, bits, m, s)
            cls_of[n] = cls
            if cls not in best and kept.setdefault(cls, n) is n:
                roots.add(n)

        def key(item):
            """PName.key of a name, or of a class's first subset."""
            if type(item) is not tuple:
                return item.key()
            combo = item[1]
            return (max((ranks[j] for j in combo), default=0), len(combo),
                    tuple(_entry_key(pairs[j]) for j in combo))

        # The kept names that were not assembled are placed by bisection;
        # no name comes before the empty name, the first class met.
        order = list(best.items())
        for n in _reach(roots):
            combo = best.get(cls_of[n])
            if combo is None or \
                    n.entries != frozenset(map(pairs.__getitem__, combo)):
                bisect.insort(order, n, key=key)
        # Bits are numbered in the order met, so ``bits`` lists them in
        # order.
        at = [0] * len(k.conds)
        for b, (i, _) in enumerate(bits):
            at[i] |= 1 << b
        self._pairs = pairs
        self._of_bit = [v for _, v in bits]
        self._at = at
        # Extended in place, past the empty name, for readers under way.
        self._order.extend(order[1:])
        self._unwalked = None

    def _read(self, k=math.inf):
        """The names of rank at most k, in the universe's order, each
        class's name interned where a reader first reaches it.  PName keeps
        the frozenset it is given unless an equal name is already interned:
        such a stale name, from an earlier equal space or a constant, may
        hold other condition objects, which ``_value`` checks first."""
        order, at = self._order, 0
        while at < len(order) or self._unwalked is not None:
            if at == len(order):  # past the empty name: walk, once
                self._walk()
                continue
            if type(order[at]) is tuple:
                mask, combo = order[at]
                es = frozenset(map(self._pairs.__getitem__, combo))
                n = order[at] = PName(es)
                (self._masks if n.entries is es else self._unchecked)[n] = mask
            tau = order[at]
            if tau.rank > k:
                return
            yield tau
            if k < 1:  # only the empty name has rank 0: stop before the walk
                return
            at += 1

    @property
    def universe(self) -> tuple[PName, ...]:
        """Every name of the space, in canonical order."""
        return tuple(self._read())

    @takes(name=PName)
    def __contains__(self, name: PName) -> bool:
        return name in self._read(name.rank)

    def __len__(self) -> int:
        if self._unwalked is not None:
            self._walk()
        return len(self._order)

    @takes(k=int)
    def names_of_rank_le(self, k: int) -> tuple[PName, ...]:
        """The names of rank at most k: a prefix of the universe."""
        return tuple(self._read(k))

    def _value(self, tau: PName, i: int) -> HF:
        """tau's value along the filter generated by condition i.  A name
        the space assembled has it read off its class mask: the values of
        the mask's bits for i, one interned set per distinct set of bits,
        which is keyed by those bits alone, as no two conditions share a
        bit.  A stale name's entries first pass through
        ``Kernel.entry_masks``, which the syntactic route reads too, so a
        copy that ``resolve`` refuses raises here as on the kernel's path.
        Any other name's value is ``Kernel.value``."""
        mask = self._masks.get(tau)
        if mask is None:
            if tau not in self._unchecked:
                return self._k.value(tau, i)
            self._k.entry_masks(tau)
            mask = self._masks[tau] = self._unchecked.pop(tau)
        sub = mask & self._at[i]
        out = self._values.get(sub)
        if out is None:
            out = self._values[sub] = HF(map(self._of_bit.__getitem__,
                                             _bits(sub)))
        return out


def _pair_mask(k: Kernel, bits: dict, below: int, s: PName) -> int:
    """The bits, numbered in ``bits``, of the (filter index, value) pairs
    that an entry (c, s) contributes, given ``below``, the mask of the
    conditions extending c: s's value along each filter that contains c.
    The union of a name's masks fixes its value along every filter."""
    mask = 0
    for i in _bits(below):
        mask |= 1 << bits.setdefault((i, k.value(s, i)), len(bits))
    return mask


# ---------------------------------------------------------------------------
# the two routes


class _Forcer:
    """Route state for one name space over a compiled poset: [[phi]] masks
    for the semantic route and F(phi) masks for the syntactic one, each
    route's atoms memoized by kind and name pair in its one table.  The
    routes share only the kernel and the space.  Conditions are kernel
    indices.

    A formula is decided under an environment ``env``, the names bound to
    its free variables (None for a closed formula), and its mask is keyed
    by the node and the names bound to ``phi.order``.  So a subformula that
    does not mention a quantified variable keys alike at every instance and
    is computed once.  Formulas and names are interned, so every table
    hashes its keys by identity.  The space, which holds its forcer, is held
    through a weak proxy, so a dropped space and its forcer are freed by
    reference counting, with no cycle for the collector to find."""

    def __init__(self, kernel: Kernel, space: Optional[NameSpace]):
        self.k = kernel
        self.space = None if space is None else weakref.proxy(space)
        self._truth: dict = {}
        self._forcing: dict = {}

    # -- semantic route: [[phi]] over the generic filters --------------------

    def truth(self, phi: Formula, env=None) -> int:
        """[[phi]] under env: the mask of the minimal conditions a such that
        phi holds along the generic filter at a, where an atom compares its
        names' values, read with the space's ``_value``, or with ``k.value``
        when there is no space, as interned sets: by identity for =, by
        membership for in.  An atom is keyed by its kind and name pair, as
        the syntactic ``atom`` is, so atoms over distinct variables bound to
        one pair share a mask."""
        kind = type(phi)
        if kind is Member or kind is Eq:
            t1, t2 = phi.left, phi.right
            t1 = t1.name if type(t1) is Cname else env[t1.name]
            t2 = t2.name if type(t2) is Cname else env[t2.name]
            key = (kind, t1, t2)
        else:
            key = (phi, *map(env.__getitem__, phi.order)) if phi.order \
                else phi
        out = self._truth.get(key)
        if out is not None:
            return out
        k = self.k
        if kind is Member or kind is Eq:
            if t1.value is not None and t2.value is not None:
                # check-names take their values along every filter
                v1, v2 = t1.value, t2.value
                holds = v1 is v2 if kind is Eq else v1 in v2.members
                out = k.minimal if holds else 0
            else:
                value = k.value if self.space is None else self.space._value
                out = 0
                for a in k.minimals:
                    v1, v2 = value(t1, a), value(t2, a)
                    if v1 is v2 if kind is Eq else v1 in v2.members:
                        out |= 1 << a
        else:
            out = self._truth_of(phi, env)
        self._truth[key] = out
        return out

    def _truth_of(self, phi: Formula, env) -> int:
        k, kind = self.k, type(phi)
        if kind is Not:
            return k.minimal & ~self.truth(phi.body, env)
        if kind is And:
            return self.truth(phi.left, env) & self.truth(phi.right, env)
        if kind is Or:
            return self.truth(phi.left, env) | self.truth(phi.right, env)
        if kind is Implies:
            return k.minimal & (~self.truth(phi.left, env)
                                | self.truth(phi.right, env))
        # A quantifier: out collects, within m(tau), where an instance
        # holds (exists) or fails (forall); forall is the rest.
        if kind is Exists:
            flip = 0
        elif kind is Forall:
            flip = k.minimal
        out = 0
        for m, inner in self._instances(phi, env):
            out |= m & (self.truth(phi.body, inner) ^ flip)
            if out == k.minimal:
                break
        return out ^ flip

    # -- syntactic route: F(phi), the conditions that force phi -------------

    def forcing(self, phi: Formula, env=None) -> int:
        """F(phi) under env: the mask of the conditions forcing it, by the
        forcing clauses applied to every condition at once."""
        kind = type(phi)
        if kind is Member or kind is Eq:
            t1, t2 = phi.left, phi.right
            return self.atom(kind,
                             t1.name if type(t1) is Cname else env[t1.name],
                             t2.name if type(t2) is Cname else env[t2.name])
        key = (phi, *map(env.__getitem__, phi.order)) if phi.order else phi
        out = self._forcing.get(key)
        if out is None:
            out = self._forcing[key] = self._forcing_of(phi, env)
        return out

    def _forcing_of(self, phi: Formula, env) -> int:
        k, kind = self.k, type(phi)
        if kind is Not:
            return k.none_below(self.forcing(phi.body, env))
        if kind is And:
            return self.forcing(phi.left, env) & self.forcing(phi.right, env)
        if kind is Or:
            return k.dense(self.forcing(phi.left, env)
                           | self.forcing(phi.right, env))
        if kind is Implies:
            # none_below(F(phi) & none_below(F(psi))) in one pass: every F
            # set is regular open, so a condition of F(phi) outside F(psi)
            # has an extension in F(phi) & none_below(F(psi)).
            return k.none_below(
                self.forcing(phi.left, env) & ~self.forcing(phi.right, env))
        # A quantifier: out collects m(tau) & F(phi(tau)) (exists) or
        # m(tau) & ~F(phi(tau)) (forall).
        if kind is Exists:
            flip = 0
        elif kind is Forall:
            flip = -1
        out = 0
        for m, inner in self._instances(phi, env):
            out |= m & (self.forcing(phi.body, inner) ^ flip)
            if out & k.minimal == k.minimal:
                break
        return k.none_below(out) if flip else k.dense(out)

    def atom(self, kind: type, t1: PName, t2: PName) -> int:
        """F(t1 = t2) or F(t1 in t2), as ``kind`` is Eq or Member.  The
        atoms recurse on name pairs alone, memoized in ``_forcing`` under
        their (kind, t1, t2) key, without building formulas."""
        if t1.value is not None and t2.value is not None:
            holds = t1 is t2 if kind is Eq else (ONE, t1) in t2.entries
            return self.k.full if holds else 0
        key = (kind, t1, t2)
        out = self._forcing.get(key)
        if out is not None:
            return out
        k = self.k
        out = 0
        if kind is Member:
            for m, sig in k.entry_masks(t2):
                out |= m & self.atom(Eq, t1, sig)
                if out & k.minimal == k.minimal:
                    break
            out = k.dense(out)
        else:
            # t1 and t2 are each forced to be a subset of the other
            for a, b in ((t1, t2), (t2, t1)):
                for m, sig in k.entry_masks(a):
                    out |= m & ~self.atom(Member, sig, b)
            out = k.none_below(out)
        self._forcing[key] = out
        return out

    def _instances(self, phi, env):
        """The instances of a quantified formula: for each name its bound
        ranges over, (mask of the conditions where it applies, env with
        ``phi.var`` bound to the name).  One copy of env is rebound per
        instance, so read each before asking for the next."""
        inner = dict(env or ())
        for m, sig in self._range(phi.bound):
            inner[phi.var] = sig
            yield m, inner

    def _range(self, bound):
        """The names a quantifier bound ranges over, as (mask of the
        conditions where each applies, name): a fresh iterable at each use,
        read only as far as its quantifier reads it.  A ``RankLE`` bound
        above the space's rank bound is refused, as the space holds only
        part of its range."""
        k = self.k
        if type(bound) is InName:
            return k.entry_masks(bound.name)
        if type(bound) is RankLE:
            if self.space is None:
                raise InvalidInput(
                    "a rank-bounded quantifier needs an ambient name space")
            if bound.bound > self.space.rank_bound:
                raise InvalidInput(
                    f"a [rank <= {bound.bound}] bound exceeds the name "
                    f"space's rank bound {self.space.rank_bound}")
            return zip(itertools.repeat(k.full), self.space._read(bound.bound))
        return ((k.full, _check_name(nat(i))) for i in range(bound.bound))


def _forcer(poset: Poset, space: Optional[NameSpace],
            phi: Formula) -> _Forcer:
    """The route state for the space, or for no space, to decide phi.  It
    hangs off the space, or off the kernel when there is none, so it lives
    exactly as long as they do.  A space over another poset is refused, and
    so is a phi nested past :data:`MAX_NESTING`, counting the space's names."""
    k = poset.kernel()
    if space is not None and space.poset is not poset:
        raise InvalidInput("the name space is built over another poset")
    _check_nesting(phi.depth,
                   phi.rank if space is None else max(phi.rank, space._rank))
    owner = k if space is None else space
    if owner.forcer is None:
        owner.forcer = _Forcer(k, space)
    return owner.forcer


def _entry(poset: Poset, p, phi: Formula,
           space: Optional[NameSpace]) -> tuple[_Forcer, int]:
    """A route's entry: the forcer for a closed phi and p's kernel index.
    The kernel's own condition object is indexed by identity
    (:meth:`Kernel.find`); anything else is checked as ``index_of`` checks
    it."""
    if phi.free:
        raise InvalidInput("forcing needs a closed formula")
    f = _forcer(poset, space, phi)
    i = f.k.find(p)
    if i is None:
        poset.index_of(p)  # refuses p: it lies outside the truncation
    return f, i


@takes(poset=Poset, phi=_Formula, space=NameSpace)
def forces_semantic(poset: Poset, p, phi: Formula,
                    space: Optional[NameSpace] = None) -> bool:
    """p forces phi: phi holds along every generic filter containing p."""
    f, i = _entry(poset, p, phi, space)
    return not f.k.down[i] & f.k.minimal & ~f.truth(phi)


@takes(poset=Poset, phi=_Formula, space=NameSpace)
def forces_syntactic(poset: Poset, p, phi: Formula,
                     space: Optional[NameSpace] = None) -> bool:
    """The recursive forcing relation; agrees with the semantic route."""
    f, i = _entry(poset, p, phi, space)
    return bool(f.forcing(phi) >> i & 1)


# ---------------------------------------------------------------------------
# mixing and the maximum principle


@takes(poset=Poset, antichain=[object], assignment=dict)
def mix(poset: Poset, p, antichain: Sequence, assignment: dict) -> PName:
    """Mix names along a maximal antichain below p: the result evaluates,
    along any generic filter containing p, to the value of the name attached
    to the unique antichain member in the filter.  ``assignment`` maps each
    member, as written in ``antichain`` (ONE included), to its name.
    """
    i = poset.index_of(p)
    k = poset.kernel()
    indices = [poset.index_of(r) for r in antichain]
    why = _not_maximal_below(k, i, indices)
    if why is not None:
        raise NotMaximalBelow(why)
    entries = []
    for r, j in zip(antichain, indices):
        tau = check_kind(assignment.get(r), PName, "mix",
                         f"the name of antichain member {r!r}")
        _check_nesting(rank=tau.rank)
        for m, sigma in k.entry_masks(tau):
            entries.extend((k.conds[s], sigma) for s in _bits(k.down[j] & m))
    return PName(entries)


@takes(poset=Poset, kappa=int, theta=_Formula)
def least_ordinal_name(poset: Poset, p, kappa: int, theta: Formula) -> PName:
    """The name for the least ordinal below kappa satisfying theta.

    Entries are (q, beta-check) for every q extending p that forces the
    failure of theta at every ordinal up to beta; along any generic filter
    containing p the name evaluates to the least ordinal satisfying theta.
    It reads one [[theta(beta-check)]] mask per ordinal.
    """
    i = poset.index_of(p)
    check_natural(kappa, "kappa", 1)
    var = single_free_var(theta)
    f = _forcer(poset, None, theta)
    k = f.k
    # held: where theta holds at some ordinal so far
    entries, held = [], 0
    for beta in range(kappa):
        beta_check = _check_name(nat(beta))
        held |= f.truth(theta, {var: beta_check})
        entries.extend((k.conds[q], beta_check) for q in _bits(k.down[i])
                       if not k.down[q] & held)
        if held == k.minimal:
            break
    if k.down[i] & k.minimal & ~held:
        raise PreconditionViolated(
            "the condition does not force an ordinal witness below kappa")
    return PName(entries)


@takes(poset=Poset, theta=_Formula, space=NameSpace)
def mp_witness_search(poset: Poset, p, theta: Formula,
                      space: NameSpace) -> Optional[PName]:
    """First name in the space's canonical order (rank, then encoding)
    that p forces to satisfy theta; None when there is none."""
    i = poset.index_of(p)
    var = single_free_var(theta)
    f = _forcer(poset, space, theta)
    below = f.k.down[i] & f.k.minimal
    for tau in space._read():
        if not below & ~f.truth(theta, {var: tau}):
            return tau
    return None
