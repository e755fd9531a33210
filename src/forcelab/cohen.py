"""Finite-truncation two-step Cohen sandbox.

A grid plays the role of the bit poset: conditions are finite partial 0/1
assignments on column x row cells, and a total assignment stands in for a
generic filter.  Each column reads off a subset of the rows; the induced
injective-map poset sends columns to those subsets.  The module builds the
standard column names, translates filters both ways across the two posets,
and carries names across via the hat map, which preserves evaluation.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from .errors import (
    ColumnCollision, InvalidInput, NonInjective, NotDense, OutOfRange,
    described, pass_on_callers, takes,
)
from .hf import nat
from .names import EMPTY_NAME, PName, check_name, name_hf, ordered_pair_name
from .perms import grid_conditions
from .posets import (
    CohenGridPoset, Filter, InjPoset, ONE, _is_nat, canon_key, is_dense,
    is_injection, is_map,
)


def _below(x, bound: int, what: str) -> int:
    """x when it is a natural below bound, by the rule the grid's condition
    check uses: another integer is out of range, and any other value, a
    bool or float included, is invalid input."""
    if _is_nat(x) and x < bound:
        return x
    if type(x) is int:
        raise OutOfRange(f"{what} {x} is outside the grid")
    raise InvalidInput(f"{what} must be an integer, not {described(x)}")


def _section(grid: CohenGridPoset, col, rows) -> frozenset[int]:
    """Column col's value, its rows as a set, checked against the grid."""
    _below(col, grid.cols, "column")
    return frozenset(_below(r, grid.rows, "row") for r in rows)


@takes(grid=CohenGridPoset, bits=[int])
class Assignment:
    """A total 0/1 assignment on a grid, bits listed row-major."""

    def __init__(self, grid: CohenGridPoset, bits: Sequence[int]):
        if len(bits) != grid.cols * grid.rows:
            raise InvalidInput(
                f"need {grid.cols * grid.rows} bits, got {len(bits)}")
        if not all(_is_nat(b) and b < 2 for b in bits):
            raise InvalidInput("assignment bits must be 0 or 1")
        self.grid = grid
        self.bits = bits
        self._columns = tuple(
            frozenset(r for r in range(grid.rows) if bits[r * grid.cols + c])
            for c in range(grid.cols))
        self._p1 = InjPoset(dom_items=tuple(range(grid.cols)), cod_items=tuple(
            sorted(set(self._columns), key=canon_key)))

    def bit(self, col: int, row: int) -> int:
        return int(_below(row, self.grid.rows, "row") in self.column(col))

    def column(self, col: int) -> frozenset[int]:
        """The subset of rows this column turns on."""
        return self._columns[_below(col, self.grid.cols, "column")]

    def columns(self) -> tuple[frozenset[int], ...]:
        return self._columns

    def has_distinct_columns(self) -> bool:
        return len(set(self._columns)) == len(self._columns)

    def filter(self) -> "GridSectionFilter":
        """All grid conditions the assignment extends, as a lazy filter."""
        return GridSectionFilter(self.grid, dict(enumerate(self._columns)))

    def p1_poset(self) -> InjPoset:
        """Injective finite maps from columns to the column values: one
        poset per assignment, as posets compare by identity."""
        return self._p1

    def __repr__(self):
        rows = ["".join(str(self.bit(c, r)) for c in range(self.grid.cols))
                for r in range(self.grid.rows)]
        return f"assignment[{'|'.join(rows)}]"


def _agrees(s, values: Mapping[int, frozenset[int]]) -> bool:
    """Does the column valuation values, column -> rows, decide every cell
    of the grid condition s the way s reads: the cell's column is valued,
    and the cell's bit is 1 exactly when its row lies in the value."""
    if s is ONE:
        return True
    for (col, row), bit in s:
        rows = values.get(col)
        if rows is None or (row in rows) != bit:
            return False
    return True


def _on_grid(grid: CohenGridPoset, s) -> None:
    """Refuse a cell of the grid condition s outside the grid."""
    for (col, row), _ in s:
        _below(col, grid.cols, "column")
        _below(row, grid.rows, "row")


def _valuation(pairs) -> dict[int, frozenset[int]]:
    """Column -> frozenset of rows, read off a mapping or a map of pairs."""
    try:
        values = dict(pairs)
        if all(type(rows) is frozenset for rows in values.values()):
            return values
    except (TypeError, ValueError) as e:
        pass_on_callers(e)
    raise InvalidInput(
        f"not a map from columns to sets of rows: {described(pairs)}")


@takes(grid=CohenGridPoset)
class GridSectionFilter:
    """The grid conditions decided by (and agreeing with) a partial choice
    of column values.  Lazy: membership is checked cell by cell; an object
    that is not a grid condition is not a member, and a cell outside the
    grid is refused."""

    def __init__(self, grid: CohenGridPoset,
                 decided: Mapping[int, frozenset[int]]):
        self.grid = grid
        self.decided = {c: _section(grid, c, rows)
                        for c, rows in _valuation(decided).items()}
        self._key = (grid.cols, grid.rows, frozenset(self.decided.items()))

    def __contains__(self, cond) -> bool:
        if cond is ONE:
            return True
        if not CohenGridPoset.is_condition(cond):
            return False
        _on_grid(self.grid, cond)
        return _agrees(cond, self.decided)

    def __hash__(self):
        return hash(self._key)

    def __eq__(self, other):
        return isinstance(other, GridSectionFilter) and self._key == other._key

    def __repr__(self):
        inner = ",".join(
            f"{c}->{{{','.join(map(str, sorted(rows)))}}}"
            for c, rows in sorted(self.decided.items()))
        return f"section{{{inner}}}"


# ---------------------------------------------------------------------------
# the column names


@takes(grid=CohenGridPoset, col=int)
def xdot_name(grid: CohenGridPoset, col: int) -> PName:
    """The column's subset-of-rows name: one entry per single-cell
    condition turning a bit on."""
    _below(col, grid.cols, "column")
    return PName(
        (frozenset({((col, row), 1)}), check_name(nat(row)))
        for row in range(grid.rows))


@takes(grid=CohenGridPoset, col=int)
def xcheckcheck_name(grid: CohenGridPoset, col: int) -> PName:
    """The name of the column's canonical name: it evaluates to the encoded
    check-name of the column value, not to the value itself."""
    return PName(
        (cond, ordered_pair_name(EMPTY_NAME, check_name(name_hf(child))))
        for cond, child in xdot_name(grid, col).entries)


def _ensure_injection(sigma: frozenset) -> None:
    if not is_injection(sigma):
        raise NonInjective(
            f"not a finite injection of naturals: {sorted(sigma, key=repr)}")


@takes(grid=CohenGridPoset, sigma=[tuple])
def r_sigma_name(grid: CohenGridPoset, sigma: Iterable[tuple[int, int]]) -> PName:
    """The graph name of a finite injection on columns: ordered pairs of
    column names, all attached to the greatest element."""
    sigma = frozenset(sigma)
    _ensure_injection(sigma)
    return PName(
        (ONE, ordered_pair_name(xdot_name(grid, i), xdot_name(grid, j)))
        for i, j in sigma)


@takes(assignment=Assignment, sigma=[tuple])
def r_sigma_condition(assignment: Assignment,
                      sigma: Iterable[tuple[int, int]]) -> frozenset:
    """The value-level condition of the graph name: the finite injection
    x_i maps to x_j for (i,j) in sigma, read in the value-to-value poset."""
    sigma = frozenset(sigma)
    _ensure_injection(sigma)
    cond = frozenset((assignment.column(i), assignment.column(j))
                     for i, j in sigma)
    if len(cond) < len(sigma) or not is_map(cond, injective=True):
        raise ColumnCollision(
            "colliding column values garble the injection")
    return cond


# ---------------------------------------------------------------------------
# the two-poset correspondence


def square_below(s, q) -> bool:
    """Does the injective-map condition q decide every cell of the grid
    condition s the same way: for each (i,j) in dom(s), i is mapped by q
    and s(i,j) = 1 exactly when j lies in q(i)."""
    if s is not ONE and not CohenGridPoset.is_condition(s):
        raise InvalidInput(f"not a grid condition: {described(s)}")
    return _agrees(s, {} if q is ONE else _valuation(q))


@takes(assignment=Assignment)
def g_to_g1(assignment: Assignment) -> Filter:
    """The induced filter on the injective-map poset: all conditions that
    send each of their columns to that column's value."""
    conds = section_g1_conditions(dict(enumerate(assignment.columns())))
    return Filter(assignment.p1_poset(), conds)


# The most colliding pairs of columns a refusal lists.
SHOWN_PAIRS = 5


def section_g1_conditions(
        decided: Mapping[int, frozenset[int]]) -> frozenset:
    """All injective-map conditions that agree with a partial choice of
    column values and mention only decided columns."""
    values = _valuation(decided)
    groups: dict[frozenset[int], list] = {}
    for c, v in values.items():
        groups.setdefault(v, []).append(c)
    count = sum(len(g) * (len(g) - 1) // 2 for g in groups.values())
    if count:
        # The first pairs in the order of all pairs of columns: each column
        # with the columns of its value after it.
        pairs, seen = [], {}
        for c, v in values.items():
            k = seen[v] = seen.get(v, 0) + 1
            pairs += [(c, d) for d in groups[v][k:k + SHOWN_PAIRS]]
            if len(pairs) >= SHOWN_PAIRS:
                break
        if count > SHOWN_PAIRS:
            raise ColumnCollision(
                f"{count} pairs of columns' values collide, the first "
                f"{SHOWN_PAIRS}: {pairs[:SHOWN_PAIRS]}")
        raise ColumnCollision(f"these columns' values collide: {pairs}")
    return frozenset(
        frozenset(picked) for k in range(len(values) + 1)
        for picked in itertools.combinations(values.items(), k))


@takes(grid=CohenGridPoset)
def g1_to_g(grid: CohenGridPoset, g1: Iterable) -> GridSectionFilter:
    """The grid conditions decided by a filter of injective-map conditions:
    a cell (i,j) reads 1 exactly when some member maps column i to a set
    containing j; columns no member mentions stay undecided."""
    members = g1.conditions if isinstance(g1, Filter) else g1
    decided: dict[int, frozenset[int]] = {}
    try:
        for cond in members:
            if cond is ONE:
                continue
            for col, rows in cond:
                rows = _section(grid, col, frozenset(rows))
                if decided.setdefault(col, rows) != rows:
                    raise InvalidInput(
                        f"the conditions disagree about column {col}")
    except (TypeError, ValueError) as e:
        pass_on_callers(e)
        raise InvalidInput("not a set of injective-map conditions: "
                           f"{described(g1)}") from None
    return GridSectionFilter(grid, decided)


@takes(assignment=Assignment, dense_set=[object])
def e_dense(assignment: Assignment, dense_set: Iterable) -> frozenset:
    """Transfer a dense set of grid conditions to the injective-map poset:
    all conditions that decide some member of the set."""
    if not is_dense(assignment.grid, dense_set):
        raise NotDense("the input set is not dense in the grid poset")
    valued = [(q, dict(q)) for q in assignment.p1_poset().conditions()]
    return frozenset(q for q, values in valued
                     if any(_agrees(s, values) for s in dense_set))


# ---------------------------------------------------------------------------
# the hat map


@takes(tau=PName, assignment=Assignment)
def hat_map(tau: PName, assignment: Assignment) -> PName:
    """Carry a grid name to the assignment's injective-map poset
    (``p1_poset()``): each entry (r, sigma) spawns (q, sigma-hat) for every
    condition q that decides r; evaluation along corresponding filters
    (``filter()`` and ``g_to_g1``) is unchanged.  Every condition in the
    name must be 1 or a grid condition, and a cell outside the grid is
    refused with ``out-of-range``, as a section refuses it.

    Values are memoized for this call only, so a subname shared by many
    entries is carried once.
    """
    for s in grid_conditions(tau) - {ONE}:
        _on_grid(assignment.grid, s)
    return _hat(tau, [(q, dict(q))
                      for q in assignment.p1_poset().conditions()], {})


def _hat(tau: PName, valued: list, memo: dict) -> PName:
    out = memo.get(tau)
    if out is None:
        out = memo[tau] = PName(
            (q, _hat(sigma, valued, memo))
            for r, sigma in tau.entries
            for q, values in valued if _agrees(r, values))
    return out
