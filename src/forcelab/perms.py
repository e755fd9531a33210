"""Column permutations: finite cycles plus closed-form two-sided chains.

A permutation is a finite union of disjoint finite cycles and Z-chains.
A chain is an injective enumeration e: Z -> omega that is affine on each
half-line outside an explicit middle window; the permutation shifts the
chain one step (e(m) goes to e(m+1)) and fixes everything else.  This class
of descriptions is closed under the factoring construction that splits a
permutation fixing [0,n) into a finite-support part fixing [0,n) and a tail
part fixing [0,k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import (
    InvalidInput, MalformedSigma, NotInSubgroup, UnknownCondition,
    check_kind, check_natural, described, takes,
)
from .names import PName, name_conditions
from .posets import ONE, CohenGridPoset, canon_key, is_injection


def _ap_meets(start1: int, step1: int, start2: int, step2: int) -> bool:
    """Do the progressions {start + t*step : t >= 0} intersect?  Steps are
    positive, so integer solvability already gives arbitrarily large common
    solutions."""
    return (start2 - start1) % math.gcd(step1, step2) == 0


@takes(lo=int, mid=tuple, neg=tuple, pos=tuple)
@dataclass(frozen=True)
class Chain:
    """Closed-form injective enumeration of a Z-chain orbit.

    ``mid`` lists the values e(lo), ..., e(hi) explicitly where
    hi = lo + len(mid) - 1; below the window e(m) = na*(lo - m) + nb and
    above it e(m) = pa*(m - hi) + pb, with positive leading coefficients so
    both tails are strictly increasing.
    """

    lo: int
    mid: tuple[int, ...]
    neg: tuple[int, int]
    pos: tuple[int, int]

    def __post_init__(self):
        for tail in (self.neg, self.pos):
            if len(tail) != 2:
                raise InvalidInput("a chain tail must be a (step, offset) "
                                   f"pair, not {described(tail)}")
        na, nb = self.neg
        pa, pb = self.pos
        check_natural(na, "a chain tail step", 1)
        check_natural(pa, "a chain tail step", 1)
        for v in (nb, pb):
            check_kind(v, int, "Chain", "a tail offset")
        if na + nb < 0 or pa + pb < 0:
            raise InvalidInput("chain tail values must stay nonnegative")
        for v in self.mid:
            check_natural(v, "a chain window value")
        if len(set(self.mid)) != len(self.mid):
            raise InvalidInput("chain window values must be distinct")
        for v in self.mid:
            if self._in_neg_tail(v) or self._in_pos_tail(v):
                raise InvalidInput("chain window value reappears in a tail")
        if _ap_meets(na + nb, na, pa + pb, pa):
            raise InvalidInput("chain tails overlap")

    @property
    def hi(self) -> int:
        return self.lo + len(self.mid) - 1

    def _in_neg_tail(self, v: int) -> bool:
        na, nb = self.neg
        return v >= na + nb and (v - nb) % na == 0

    def _in_pos_tail(self, v: int) -> bool:
        pa, pb = self.pos
        return v >= pa + pb and (v - pb) % pa == 0

    def value(self, m: int) -> int:
        if m < self.lo:
            na, nb = self.neg
            return na * (self.lo - m) + nb
        if m > self.hi:
            pa, pb = self.pos
            return pa * (m - self.hi) + pb
        return self.mid[m - self.lo]

    def index_of(self, v: int) -> Optional[int]:
        for offset, w in enumerate(self.mid):
            if w == v:
                return self.lo + offset
        na, nb = self.neg
        if self._in_neg_tail(v):
            return self.lo - (v - nb) // na
        pa, pb = self.pos
        if self._in_pos_tail(v):
            return self.hi + (v - pb) // pa
        return None

    def min_value(self) -> int:
        na, nb = self.neg
        pa, pb = self.pos
        return min([na + nb, pa + pb, *self.mid])

    def indices_below(self, k: int) -> list[int]:
        """All m with e(m) < k; finite because the tails increase."""
        return sorted(m for m in map(self.index_of, range(k)) if m is not None)

    def shift(self, s: int) -> "Chain":
        """The reindexed chain e'(m) = e(m + s)."""
        return Chain(self.lo - s, self.mid, self.neg, self.pos)

    def widen(self, new_lo: int, new_hi: int) -> "Chain":
        """The same enumeration with a larger explicit window."""
        if new_lo > self.lo or new_hi < self.hi:
            raise InvalidInput("widening may only grow the window")
        na, nb = self.neg
        pa, pb = self.pos
        return Chain(
            new_lo,
            tuple(self.value(m) for m in range(new_lo, new_hi + 1)),
            (na, nb + na * (self.lo - new_lo)),
            (pa, pb + pa * (new_hi - self.hi)),
        )

    def splice(self, window: int) -> "Chain":
        """Remove the window indices 1..window-1 and close the gap: the
        enumeration f(m) = e(m) for m <= 0 and f(m) = e(m + window - 1)
        for m >= 1."""
        if window < 1:
            raise InvalidInput("window length must be positive")
        low = min(self.lo, 0)
        high = max(self.hi, window - 1)
        wide = self.widen(low, high)
        keep_left = wide.mid[:1 - low]
        keep_right = wide.mid[window - low:]
        return Chain(low, keep_left + keep_right, wide.neg, wide.pos)


def _canon_cycle(items: tuple[int, ...]) -> tuple[int, ...]:
    if len(set(items)) != len(items):
        raise InvalidInput("cycle entries must be distinct")
    for v in items:
        check_natural(v, "a cycle entry")
    start = items.index(min(items))
    return items[start:] + items[:start]


def _chains_meet(c1: Chain, c2: Chain) -> bool:
    if any(c2.index_of(v) is not None for v in c1.mid):
        return True
    if any(c1.index_of(v) is not None for v in c2.mid):
        return True
    for start1, step1 in ((c1.neg[0] + c1.neg[1], c1.neg[0]),
                          (c1.pos[0] + c1.pos[1], c1.pos[0])):
        for start2, step2 in ((c2.neg[0] + c2.neg[1], c2.neg[0]),
                              (c2.pos[0] + c2.pos[1], c2.pos[0])):
            if _ap_meets(start1, step1, start2, step2):
                return True
    return False


@takes(cycles=[[int]], chains=[Chain])
class Perm:
    """A bijection of the naturals given by disjoint cycles and chains."""

    __slots__ = ("cycles", "chains", "_fwd", "_key")

    def __init__(self, cycles: Iterable[Iterable[int]] = (),
                 chains: Iterable[Chain] = ()):
        canon = [_canon_cycle(c) for c in cycles if len(c) > 1]
        self.cycles: tuple[tuple[int, ...], ...] = tuple(sorted(canon))
        self.chains: tuple[Chain, ...] = tuple(
            sorted(chains, key=lambda ch: (ch.min_value(), ch.lo, ch.mid,
                                           ch.neg, ch.pos)))
        fwd = {}
        for cyc in self.cycles:
            for i, v in enumerate(cyc):
                if v in fwd:
                    raise InvalidInput("cycles overlap")
                fwd[v] = cyc[(i + 1) % len(cyc)]
        self._fwd = fwd
        for ch in self.chains:
            if any(ch.index_of(v) is not None for v in fwd):
                raise InvalidInput("a chain overlaps a cycle")
        for i in range(len(self.chains)):
            for j in range(i + 1, len(self.chains)):
                if _chains_meet(self.chains[i], self.chains[j]):
                    raise InvalidInput("chains overlap")
        self._key = (self.cycles, self.chains)

    def __hash__(self):
        return hash(self._key)

    def __eq__(self, other):
        return isinstance(other, Perm) and self._key == other._key

    def __repr__(self):
        parts = ["(" + " ".join(map(str, c)) + ")" for c in self.cycles]
        parts += [f"chain[{ch.lo}..{ch.hi}]{ch.mid}" for ch in self.chains]
        return "perm " + (" ".join(parts) if parts else "id")

    # -- action on points ---------------------------------------------------

    def apply(self, x: int) -> int:
        if x in self._fwd:
            return self._fwd[x]
        for ch in self.chains:
            m = ch.index_of(x)
            if m is not None:
                return ch.value(m + 1)
        return x

    # -- subgroup membership -------------------------------------------------

    def min_moved(self) -> Optional[int]:
        values = [min(c) for c in self.cycles]
        values += [ch.min_value() for ch in self.chains]
        return min(values) if values else None

    def fixes_below(self, n: int) -> bool:
        m = self.min_moved()
        return m is None or m >= n

    def in_G(self) -> bool:
        return not self.chains

    def in_Hn(self, n: int) -> bool:
        return self.in_G() and self.fixes_below(n)


@takes(i=int, j=int)
def transposition(i: int, j: int) -> Perm:
    if i == j:
        raise InvalidInput("a transposition needs two distinct points")
    return Perm(((i, j),))


# ---------------------------------------------------------------------------
# the factoring construction


@takes(perm=Perm, n=int, k=int)
def decompose(perm: Perm, n: int, k: int) -> tuple[Perm, Perm]:
    """Split a permutation fixing [0,n) as first o second, where the first
    factor has finite support and still fixes [0,n) while the second fixes
    all of [0,k).

    Finite orbits meeting [0,k) go wholly into the first factor.  For a
    chain orbit meeting [0,k), reindex so the members below k sit at
    indices 1..N-1; the first factor cyclically shifts the window of
    indices 1..N and the second shifts the chain with that window spliced
    out, which moves only values at least k.
    """
    check_natural(k, "k", check_natural(n, "n") + 1)
    if not perm.fixes_below(n):
        raise NotInSubgroup(f"the permutation moves a point below {n}")
    first_cycles: list[tuple[int, ...]] = []
    second_cycles: list[tuple[int, ...]] = []
    second_chains: list[Chain] = []
    for cyc in perm.cycles:
        if min(cyc) < k:
            first_cycles.append(cyc)
        else:
            second_cycles.append(cyc)
    for ch in perm.chains:
        hits = ch.indices_below(k)
        if not hits:
            second_chains.append(ch)
            continue
        shifted = ch.shift(min(hits) - 1)
        window = max(hits) - min(hits) + 2
        first_cycles.append(
            tuple(shifted.value(i) for i in range(1, window + 1)))
        second_chains.append(shifted.splice(window))
    return Perm(first_cycles), Perm(second_cycles, second_chains)


# ---------------------------------------------------------------------------
# action on conditions and names


def _relabel(perm: Perm, cond):
    """Relabel the columns of a grid condition; rows and bits stay put."""
    if cond is ONE:
        return ONE
    return frozenset(((perm.apply(c), r), bit) for (c, r), bit in cond)


@takes(perm=Perm, tau=PName)
def act_name(perm: Perm, tau: PName) -> PName:
    """Apply the column relabeling to every condition in a name, which must
    be 1 or a grid condition.

    Values are memoized for this call only, so a subname shared by many
    entries is relabeled once.
    """
    grid_conditions(tau)
    return _act(perm, tau, {})


def _act(perm: Perm, tau: PName, memo: dict) -> PName:
    out = memo.get(tau)
    if out is None:
        out = memo[tau] = PName(
            (_relabel(perm, cond), _act(perm, child, memo))
            for cond, child in tau.entries)
    return out


def grid_conditions(tau: PName) -> set:
    """All conditions hereditarily inside a name; raises UnknownCondition
    unless each is 1 or a grid condition."""
    conds = name_conditions(tau)
    bad = [c for c in conds
           if c is not ONE and not CohenGridPoset.is_condition(c)]
    if bad:
        raise UnknownCondition(
            f"not a grid condition: {described(min(bad, key=canon_key))}")
    return conds


@takes(tau=PName)
def column_support(tau: PName) -> frozenset[int]:
    """All columns mentioned by conditions hereditarily inside a name."""
    cols = set()
    for cond in grid_conditions(tau):
        if cond is ONE:
            continue
        cols.update(c for (c, _), _ in cond)
    return frozenset(cols)


@takes(tau=PName, n=int)
def is_fixed_by_Hn(tau: PName, n: int) -> bool:
    """Is the name fixed by every permutation that is the identity below n?

    Exactly when its support lies below n: a permutation that fixes every
    column the name mentions fixes the name, and a support column c >= n
    swapped with a column the name never mentions moves the support.
    """
    check_natural(n, "n")
    return all(c < n for c in column_support(tau))


# ---------------------------------------------------------------------------
# interval-swap conjugation of finite injections


def _check_sigma(sigma: frozenset, n: int, bound: int) -> None:
    if not is_injection(sigma):
        raise MalformedSigma("the graph is not a finite injection of naturals")
    for entry in sigma:
        if entry[0] >= bound or entry[1] >= bound:
            raise MalformedSigma(
                f"entry {described(entry)} escapes the declared bound "
                f"{bound}")
    image = dict(sigma)
    for i in range(n):
        if image.get(i) != i:
            raise MalformedSigma(f"the injection must fix {i}")


@takes(sigma=[tuple], n=int, bound=int)
def sigma_conjugate(sigma: Iterable[tuple[int, int]], n: int,
                    bound: int) -> tuple[Perm, frozenset]:
    """Swap the columns [n, bound) with [bound+n, 2*bound) ... precisely,
    swap k and bound+k for each n <= k < bound, and translate the moving
    part of the injection by bound.

    Returns the swapping permutation and the translated injection, which
    agrees with the original on [0,n) and lives on disjoint columns
    otherwise, so the two relation conditions they describe are compatible.
    """
    sigma = frozenset(sigma)
    check_natural(bound, "bound", check_natural(n, "n"))
    _check_sigma(sigma, n, bound)
    perm = Perm((k, bound + k) for k in range(n, bound))
    translated = frozenset(
        (i, i) for i in range(n)) | frozenset(
        (i + bound, j + bound) for i, j in sigma if i >= n)
    return perm, translated
