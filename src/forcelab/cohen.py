"""Finite-truncation two-step Cohen sandbox.

A grid plays the role of the bit poset: conditions are finite partial 0/1
assignments on column x row cells, and a total assignment stands in for a
generic filter.  Each column reads off a subset of the rows; the induced
injective-map poset sends columns to those subsets.  The module builds the
standard column names, translates filters both ways across the two posets,
and carries names across via the hat map, which preserves evaluation.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import (
    ColumnCollision, InvalidInput, NonInjective, NotDense, OutOfRange,
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
    raise InvalidInput(f"{what} must be an integer, not {x!r}")


def _section(grid: CohenGridPoset, col, rows) -> frozenset[int]:
    """Column col's value, its rows as a set; the column and each row are
    checked against the grid."""
    _below(col, grid.cols, "column")
    try:
        return frozenset(_below(r, grid.rows, "row") for r in rows)
    except TypeError:
        raise InvalidInput(f"the value of column {col} must be a set of "
                           f"rows, not {rows!r}") from None


class Assignment:
    """A total 0/1 assignment on a grid, bits listed row-major."""

    def __init__(self, grid: CohenGridPoset, bits: Sequence[int]):
        try:
            bits = tuple(bits)
        except TypeError:
            raise InvalidInput(
                f"assignment bits must be a sequence, not {bits!r}") from None
        if len(bits) != grid.cols * grid.rows:
            raise InvalidInput(
                f"need {grid.cols * grid.rows} bits, got {len(bits)}")
        if not all(_is_nat(b) and b < 2 for b in bits):
            raise InvalidInput("assignment bits must be 0 or 1")
        self.grid = grid
        self.bits = bits

    def bit(self, col: int, row: int) -> int:
        _below(col, self.grid.cols, "column")
        _below(row, self.grid.rows, "row")
        return self.bits[row * self.grid.cols + col]

    def column(self, col: int) -> frozenset[int]:
        """The subset of rows this column turns on."""
        return frozenset(r for r in range(self.grid.rows)
                         if self.bit(col, r) == 1)

    def columns(self) -> tuple[frozenset[int], ...]:
        return tuple(self.column(c) for c in range(self.grid.cols))

    def has_distinct_columns(self) -> bool:
        cols = self.columns()
        return len(set(cols)) == len(cols)

    def filter(self) -> "GridSectionFilter":
        """All grid conditions the assignment extends, as a lazy filter."""
        return GridSectionFilter(
            self.grid, {c: self.column(c) for c in range(self.grid.cols)})

    def p1_poset(self) -> InjPoset:
        """Injective finite maps from columns to the column values."""
        values = sorted(set(self.columns()), key=canon_key)
        return InjPoset(dom_items=range(self.grid.cols), cod_items=values)

    def __repr__(self):
        rows = ["".join(str(self.bit(c, r)) for c in range(self.grid.cols))
                for r in range(self.grid.rows)]
        return f"assignment[{'|'.join(rows)}]"


class GridSectionFilter:
    """The grid conditions decided by (and agreeing with) a partial choice
    of column values.  Lazy: membership is checked cell by cell."""

    def __init__(self, grid: CohenGridPoset,
                 decided: Mapping[int, frozenset[int]]):
        self.grid = grid
        self.decided = {c: _section(grid, c, rows)
                        for c, rows in decided.items()}
        self._key = (grid.cols, grid.rows,
                     tuple(sorted((c, tuple(sorted(rows)))
                                  for c, rows in self.decided.items())))

    def __contains__(self, cond) -> bool:
        if cond is ONE:
            return True
        for (c, r), bit in cond:
            if c not in self.decided or not (0 <= r < self.grid.rows):
                return False
            if bit != (1 if r in self.decided[c] else 0):
                return False
        return True

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


def xdot_name(grid: CohenGridPoset, col: int) -> PName:
    """The column's subset-of-rows name: one entry per single-cell
    condition turning a bit on."""
    _below(col, grid.cols, "column")
    return PName(
        (frozenset({((col, row), 1)}), check_name(nat(row)))
        for row in range(grid.rows))


def xcheckcheck_name(grid: CohenGridPoset, col: int) -> PName:
    """The name of the column's canonical name: it evaluates to the encoded
    check-name of the column value, not to the value itself."""
    _below(col, grid.cols, "column")
    return PName(
        (frozenset({((col, row), 1)}),
         ordered_pair_name(EMPTY_NAME,
                           check_name(name_hf(check_name(nat(row))))))
        for row in range(grid.rows))


def _ensure_injection(sigma: frozenset) -> None:
    if not is_injection(sigma):
        raise NonInjective(
            f"not a finite injection of naturals: {sorted(sigma, key=repr)}")


def r_sigma_name(grid: CohenGridPoset, sigma: Iterable[tuple[int, int]]) -> PName:
    """The graph name of a finite injection on columns: ordered pairs of
    column names, all attached to the greatest element."""
    sigma = frozenset(sigma)
    _ensure_injection(sigma)
    return PName(
        (ONE, ordered_pair_name(xdot_name(grid, i), xdot_name(grid, j)))
        for i, j in sigma)


def r_sigma_condition(assignment: Assignment,
                      sigma: Iterable[tuple[int, int]]) -> frozenset:
    """The value-level condition of the graph name: the finite injection
    x_i maps to x_j for (i,j) in sigma, read in the value-to-value poset."""
    sigma = frozenset(sigma)
    _ensure_injection(sigma)
    pairs = {(assignment.column(i), assignment.column(j)) for i, j in sigma}
    cond = frozenset(pairs)
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
    if s is ONE:
        return True
    values = dict(q) if q is not ONE else {}
    for (i, j), bit in s:
        if i not in values:
            return False
        if bit != (1 if j in values[i] else 0):
            return False
    return True


def g_to_g1(assignment: Assignment) -> Filter:
    """The induced filter on the injective-map poset: all conditions that
    send each of their columns to that column's value."""
    if not assignment.has_distinct_columns():
        pairs = sorted(
            (c1, c2)
            for c1 in range(assignment.grid.cols)
            for c2 in range(c1 + 1, assignment.grid.cols)
            if assignment.column(c1) == assignment.column(c2))
        raise ColumnCollision(
            f"columns collide under this assignment: {pairs}")
    p1 = assignment.p1_poset()
    section = {c: assignment.column(c) for c in range(assignment.grid.cols)}
    return Filter(p1, section_g1_conditions(section))


def section_g1_conditions(
        decided: Mapping[int, frozenset[int]]) -> frozenset:
    """All injective-map conditions that agree with a partial choice of
    column values and mention only decided columns."""
    values = dict(decided)
    if len(set(values.values())) != len(values):
        raise ColumnCollision("decided column values collide")
    cols = sorted(values)
    out = []
    for mask in range(1 << len(cols)):
        picked = [cols[i] for i in range(len(cols)) if mask >> i & 1]
        out.append(frozenset((c, values[c]) for c in picked))
    return frozenset(out)


def g1_to_g(grid: CohenGridPoset, g1: Iterable) -> GridSectionFilter:
    """The grid conditions decided by a filter of injective-map conditions:
    a cell (i,j) reads 1 exactly when some member maps column i to a set
    containing j; columns no member mentions stay undecided."""
    members = g1.conditions if isinstance(g1, Filter) else g1
    decided: dict[int, frozenset[int]] = {}
    for cond in members:
        if cond is ONE:
            continue
        for col, rows in cond:
            rows = _section(grid, col, rows)
            if decided.setdefault(col, rows) != rows:
                raise InvalidInput(
                    f"the conditions disagree about column {col}")
    return GridSectionFilter(grid, decided)


def e_dense(assignment: Assignment, dense_set: Iterable) -> frozenset:
    """Transfer a dense set of grid conditions to the injective-map poset:
    all conditions that decide some member of the set."""
    dense = list(dense_set)
    if not is_dense(assignment.grid, dense):
        raise NotDense("the input set is not dense in the grid poset")
    p1 = assignment.p1_poset()
    return frozenset(
        q for q in p1.conditions()
        if any(square_below(s, q) for s in dense))


# ---------------------------------------------------------------------------
# the hat map


def hat_map(tau: PName, p1: InjPoset) -> PName:
    """Carry a grid name to the injective-map poset: each entry (r, sigma)
    spawns (q, sigma-hat) for every condition q that decides r; evaluation
    along corresponding filters is unchanged.  Every condition in the name
    must be 1 or a grid condition.

    Values are memoized for this call only, so a subname shared by many
    entries is carried once.
    """
    grid_conditions(tau)
    return _hat(tau, p1.conditions(), {})


def _hat(tau: PName, conds: tuple, memo: dict) -> PName:
    out = memo.get(tau)
    if out is None:
        out = memo[tau] = PName(
            (q, _hat(sigma, conds, memo))
            for r, sigma in tau.entries for q in conds if square_below(r, q))
    return out
