"""Grids, sections, and the translation between the two forcing posets."""

import contextlib
import io
import itertools
import time
from pathlib import Path

import pytest

from forcelab import cli, posets
from forcelab import (
    Assignment, CohenGridPoset, ColumnCollision, EMPTY_NAME,
    GridSectionFilter, HF, InvalidInput, NonInjective, NotDense, ONE,
    OutOfRange, UnknownCondition, check_name, e_dense, eval_name, g1_to_g, g_to_g1, hat_map,
    is_dense, kuratowski, name_hf, nat, ordered_pair_name, PName,
    r_sigma_condition, r_sigma_name, section_g1_conditions, square_below,
    xcheckcheck_name, xdot_name,
)

GRID = CohenGridPoset(2, 2)
ASG = Assignment(GRID, [0, 1, 1, 0])   # columns: 0 -> {1}, 1 -> {0}
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestAssignment:
    def test_bits_are_row_major(self):
        assert ASG.bit(0, 0) == 0 and ASG.bit(1, 0) == 1
        assert ASG.column(0) == frozenset({1})
        assert ASG.column(1) == frozenset({0})

    def test_length_and_bit_values_validated(self):
        with pytest.raises(InvalidInput):
            Assignment(GRID, [0, 1])
        with pytest.raises(InvalidInput):
            Assignment(GRID, [0, 1, 1, 2])
        with pytest.raises(OutOfRange):
            ASG.bit(2, 0)

    def test_distinct_columns(self):
        assert ASG.has_distinct_columns()

    def test_repr_lists_rows(self):
        assert repr(ASG) == "assignment[01|10]"
        assert not Assignment(GRID, [1, 1, 0, 0]).has_distinct_columns()

    def test_as_condition_and_filter(self):
        cond = frozenset({((0, 0), 0), ((1, 0), 1), ((0, 1), 1), ((1, 1), 0)})
        filt = ASG.filter()
        assert cond in filt and ONE in filt
        assert frozenset({((0, 0), 1)}) not in filt

    def test_section_filter_rejects_bad_cells(self):
        filt = GridSectionFilter(GRID, {0: frozenset({1})})
        assert frozenset({((0, 1), 1)}) in filt
        assert frozenset({((1, 1), 1)}) not in filt    # column undecided
        with pytest.raises(OutOfRange):
            GridSectionFilter(GRID, {5: frozenset()})
        with pytest.raises(OutOfRange):
            GridSectionFilter(GRID, {0: frozenset({9})})

    def test_off_grid_cell_is_out_of_range(self):
        # Refused, not read as undecided: the hat map, which sees no grid,
        # would read a 0 in an off-grid row as agreeing with every value.
        for cell in ((0, 5), (5, 0)):
            with pytest.raises(OutOfRange):
                frozenset({(cell, 0)}) in ASG.filter()

    def test_non_conditions_are_not_members(self):
        assert "a" not in ASG.filter()
        assert 5 not in ASG.filter()
        assert eval_name(PName([("a", EMPTY_NAME)]), ASG.filter()) == HF()


WRONG_KINDS = {
    "bits-int": lambda: Assignment(GRID, 5),
    "bit-bool": lambda: Assignment(GRID, [True, 0, 1, 0]),
    "bit-float": lambda: Assignment(GRID, [1.0, 0, 1, 0]),
    "bit-col-float": lambda: ASG.bit(0.5, 0),
    "xdot-str": lambda: xdot_name(GRID, "a"),
    "xdot-bool": lambda: xdot_name(GRID, True),
    "xcc-str": lambda: xcheckcheck_name(GRID, "a"),
    "section-col-float": lambda: GridSectionFilter(
        GRID, {0.0: frozenset({1})}),
    "section-row-float": lambda: GridSectionFilter(
        GRID, {0: frozenset({0.5})}),
    "section-rows-int": lambda: GridSectionFilter(GRID, {0: 5}),
    "g1-col-float": lambda: g1_to_g(
        GRID, [frozenset({(0.0, frozenset({1}))})]),
    "g1-col-float-after-int": lambda: g1_to_g(
        GRID, [frozenset({(0, frozenset({1}))}),
               frozenset({(0.0, frozenset({1}))})]),
    "section-int": lambda: GridSectionFilter(GRID, 5),
    "g1-int": lambda: g1_to_g(GRID, 5),
    "square-value-int": lambda: square_below(
        frozenset({((0, 0), 1)}), frozenset({(0, 5)})),
    "g1-sections-list": lambda: section_g1_conditions({0: [1]}),
}


@pytest.mark.parametrize("call", WRONG_KINDS.values(), ids=WRONG_KINDS.keys())
def test_wrong_kinds_are_invalid_input(call):
    # Columns, rows and bits follow the grid's own condition check: an
    # integer outside the grid is out of range (the tests above), and any
    # other value, a bool or float included, is invalid input.
    with pytest.raises(InvalidInput):
        call()


class TestColumnNames:
    def test_xdot_eval(self):
        assert eval_name(xdot_name(GRID, 0), ASG.filter()) == HF([nat(1)])
        assert eval_name(xdot_name(GRID, 1), ASG.filter()) == HF([nat(0)])

    def test_xdot_conditions_are_single_cells(self):
        for cond, _ in xdot_name(GRID, 0).sorted_entries():
            assert len(cond) == 1

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            xdot_name(GRID, 2)
        with pytest.raises(OutOfRange):
            xcheckcheck_name(GRID, -1)

    def test_xcheckcheck_encodes_check_of_column(self):
        tau = xcheckcheck_name(GRID, 0)
        value = eval_name(tau, ASG.filter())
        want = HF([kuratowski(HF(), name_hf(check_name(nat(1))))])
        assert value == want

    def test_r_sigma_name_eval(self):
        tau = r_sigma_name(GRID, {(0, 1)})
        x0 = eval_name(xdot_name(GRID, 0), ASG.filter())
        x1 = eval_name(xdot_name(GRID, 1), ASG.filter())
        assert eval_name(tau, ASG.filter()) == HF([kuratowski(x0, x1)])

    def test_r_sigma_rejects_non_injection(self):
        with pytest.raises(NonInjective):
            r_sigma_name(GRID, {(0, 0), (1, 0)})
        with pytest.raises(NonInjective):
            r_sigma_name(GRID, {(0, 1), (0, 0)})

    def test_r_sigma_condition_value(self):
        got = r_sigma_condition(ASG, {(0, 1)})
        assert got == frozenset({(frozenset({1}), frozenset({0}))})

    def test_r_sigma_condition_tolerates_harmless_collision(self):
        # x_0 = x_1 turns (0,1) into an identity pair, still injective
        same = Assignment(GRID, [1, 1, 0, 0])
        got = r_sigma_condition(same, {(0, 1)})
        assert got == frozenset({(frozenset({0}), frozenset({0}))})

    def test_r_sigma_condition_rejects_garbling_collisions(self):
        wide = CohenGridPoset(4, 1)
        # x_0 = x_1 and x_2 = x_3: the two sigma pairs collapse into one
        both = Assignment(wide, [1, 1, 0, 0])
        with pytest.raises(ColumnCollision):
            r_sigma_condition(both, {(0, 2), (1, 3)})
        # x_2 = x_3 only: two distinct sources share one target, not injective
        cods = Assignment(wide, [1, 0, 0, 0])
        with pytest.raises(ColumnCollision):
            r_sigma_condition(cods, {(0, 2), (1, 3)})


class TestSquareBelow:
    def test_one_is_below_everything(self):
        assert square_below(ONE, frozenset())

    def test_matching_cells(self):
        s = frozenset({((0, 1), 1), ((0, 0), 0)})
        q_yes = frozenset({(0, frozenset({1}))})
        q_no = frozenset({(0, frozenset({0}))})
        q_undecided = frozenset({(1, frozenset({1}))})
        assert square_below(s, q_yes)
        assert not square_below(s, q_no)
        assert not square_below(s, q_undecided)

    @pytest.mark.parametrize("cols, rows", [(2, 2), (3, 2)])
    def test_agrees_with_section_membership(self, cols, rows):
        # Both decide a grid condition by one rule: along a distinct-column
        # assignment, a condition is in its section exactly when the full
        # injective map of its columns decides it.
        grid = CohenGridPoset(cols, rows)
        conds = grid.conditions()
        for bits in itertools.product((0, 1), repeat=cols * rows):
            asg = Assignment(grid, bits)
            if not asg.has_distinct_columns():
                continue
            filt = asg.filter()
            q = frozenset(enumerate(asg.columns()))
            for s in conds:
                assert (s in filt) == square_below(s, q), (asg, s)


class TestFilterTranslation:
    def test_roundtrip_all_distinct_assignments(self):
        for bits in itertools.product((0, 1), repeat=4):
            asg = Assignment(GRID, bits)
            if not asg.has_distinct_columns():
                with pytest.raises(ColumnCollision):
                    g_to_g1(asg)
                continue
            g1 = g_to_g1(asg)
            assert g1.is_filter()
            assert g1_to_g(GRID, g1) == asg.filter()

    def test_g1_contents(self):
        g1 = g_to_g1(ASG)
        assert frozenset({(0, frozenset({1}))}) in g1.conditions
        assert frozenset() in g1.conditions
        assert len(g1.conditions) == 4

    def test_g1_to_g_accepts_plain_iterables(self):
        filt = g1_to_g(GRID, [frozenset({(0, frozenset({1}))})])
        assert filt.decided == {0: frozenset({1})}

    def test_g1_to_g_rejects_disagreement(self):
        with pytest.raises(InvalidInput):
            g1_to_g(GRID, [frozenset({(0, frozenset({1}))}),
                           frozenset({(0, frozenset({0}))})])

    def test_section_conditions_collision(self):
        with pytest.raises(ColumnCollision) as exc:
            section_g1_conditions({0: frozenset({1}), 1: frozenset({1})})
        assert str(exc.value) == "these columns' values collide: [(0, 1)]"
        a, b = frozenset({0}), frozenset({1})
        with pytest.raises(ColumnCollision) as exc:
            section_g1_conditions({0: a, 1: b, 2: a, 3: b, 4: b})
        assert str(exc.value) == \
            "these columns' values collide: [(0, 2), (1, 3), (1, 4), (3, 4)]"

    def test_many_colliding_columns_give_a_short_refusal(self):
        # 1,500 equal columns collide in 1,124,250 pairs: the refusal
        # counts them and lists the first five, in pair order.
        start = time.perf_counter()
        with pytest.raises(ColumnCollision) as exc:
            section_g1_conditions({i: frozenset({0}) for i in range(1500)})
        elapsed = time.perf_counter() - start
        message = str(exc.value)
        assert elapsed < 0.1 and len(message) < 1000
        assert message == ("1124250 pairs of columns' values collide, the "
                           "first 5: [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]")

    def test_equal_sections_hash_alike(self):
        sections = {ASG.filter(),
                    GridSectionFilter(GRID, [(1, frozenset({0})),
                                             (0, frozenset({1}))]),
                    GridSectionFilter(GRID, {0: frozenset({1})})}
        assert len(sections) == 2
        assert GridSectionFilter(GRID, {0: frozenset({1})}) in sections

    def test_section_repr_is_canonical(self):
        section = GridSectionFilter(GRID, {1: frozenset({1, 0}),
                                           0: frozenset()})
        assert repr(section) == "section{0->{},1->{0,1}}"


class TestInjectionPoset:
    def test_one_poset_per_assignment(self):
        assert ASG.p1_poset() is ASG.p1_poset()

    def test_edense_compiles_one_injection_kernel(self, monkeypatch):
        # e_dense and the report's density check each ask for the
        # injection poset; an equal copy per call would compile its kernel
        # again, as posets compare by identity.
        compiled = []
        init = posets.Kernel.__init__

        def counting(self, poset):
            compiled.append(poset.kind)
            init(self, poset)

        monkeypatch.setattr(posets.Kernel, "__init__", counting)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["cohen", str(SCENARIOS / "cohen_edense.fl")]) == 0
        assert compiled.count("inj") == 1


class TestEDense:
    def small(self):
        grid = CohenGridPoset(2, 1)
        return grid, Assignment(grid, [0, 1])

    def test_transports_density(self):
        grid, asg = self.small()
        dense = [c for c in grid.conditions() if len(c) == 2]
        e = e_dense(asg, dense)
        assert is_dense(asg.p1_poset(), e)
        assert all(any(square_below(s, q) for s in dense) for q in e)

    def test_rejects_non_dense_input(self):
        grid, asg = self.small()
        with pytest.raises(NotDense):
            e_dense(asg, [frozenset({((0, 0), 0)})])


class TestHatMap:
    def test_hat_preserves_evaluation_on_samples(self):
        g1 = g_to_g1(ASG)
        samples = [
            EMPTY_NAME,
            xdot_name(GRID, 0),
            check_name(nat(2)),
            ordered_pair_name(xdot_name(GRID, 0), xdot_name(GRID, 1)),
            PName([(frozenset({((1, 0), 1)}), xdot_name(GRID, 0))]),
            r_sigma_name(GRID, {(0, 1)}),
        ]
        for tau in samples:
            assert eval_name(hat_map(tau, ASG), g1) == \
                eval_name(tau, ASG.filter()), tau

    def test_hat_evaluation_checks_no_kernel_condition(self, monkeypatch):
        # The hat name's conditions are the injection kernel's own
        # objects, which a filter takes by identity.
        tau = r_sigma_name(GRID, {(0, 1)})
        hat, g1, want = hat_map(tau, ASG), g_to_g1(ASG), \
            eval_name(tau, ASG.filter())
        own = {id(c) for c in ASG.p1_poset().kernel().conds}
        assert any(id(q) in own for q, _ in hat.entries)
        asked = []
        is_condition = posets.MapPoset.is_condition
        monkeypatch.setattr(posets.MapPoset, "is_condition",
                            lambda self, c: asked.append(c)
                            or is_condition(self, c))
        assert eval_name(hat, g1) == want
        assert [c for c in asked if id(c) in own] == []

    def test_hat_of_empty_is_empty(self):
        assert hat_map(EMPTY_NAME, ASG) == EMPTY_NAME

    def test_hat_rejects_non_grid_conditions(self):
        tau = PName([(ONE, PName([("a", EMPTY_NAME)]))])
        with pytest.raises(UnknownCondition):
            hat_map(tau, ASG)

    @pytest.mark.parametrize("cell", [(0, 5), (5, 0)],
                             ids=["off-grid-row", "off-grid-column"])
    def test_hat_refuses_a_cell_outside_the_grid(self, cell):
        # An off-grid 0 would agree with every column value, and a cell in
        # an off-grid column would agree with no P1 condition.
        tau = PName([(frozenset({(cell, 0)}), check_name(nat(1)))])
        with pytest.raises(OutOfRange):
            hat_map(tau, ASG)
        with pytest.raises(OutOfRange):
            hat_map(PName([(ONE, tau)]), ASG)

    @pytest.mark.parametrize("other", [ASG.p1_poset(), GRID, 5])
    def test_hat_takes_an_assignment(self, other):
        with pytest.raises(InvalidInput):
            hat_map(xdot_name(GRID, 0), other)
