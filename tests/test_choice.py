"""Antichains and witness names versus choice functions."""

import pytest

from forcelab import (
    ChoiceFunction, ChoicePoset, Family, FlatPoset, InvalidInput, NotMaximal,
    ONE, PreconditionViolated, ValueEscapesBlock, all_choice_functions,
    antichain_from_choice, build_witness_flat, check_name,
    choice_from_antichain, enumerate_maximal_antichains, eval_name,
    extract_choice_flat, forces_semantic, generic_filter, nat, subst,
    theta_family,
)

FAM = Family([("a", [nat(0), nat(1)]), ("b", [nat(2)])])


class TestChoiceFunction:
    def test_total_and_in_block(self):
        f = ChoiceFunction(FAM, {"a": nat(0), "b": nat(2)})
        assert f["a"] == nat(0)

    def test_missing_block_rejected(self):
        with pytest.raises(InvalidInput):
            ChoiceFunction(FAM, {"a": nat(0)})

    def test_value_outside_block_rejected(self):
        with pytest.raises(ValueEscapesBlock):
            ChoiceFunction(FAM, {"a": nat(2), "b": nat(2)})

    def test_repr_lists_the_blocks_in_family_order(self):
        f = ChoiceFunction(FAM, {"b": nat(2), "a": nat(1)})
        assert repr(f) == "choice{a->1,b->2}"

    def test_all_choice_functions_count(self):
        assert len(all_choice_functions(FAM)) == 2
        fam3 = Family([("a", [nat(0), nat(1)]), ("b", [nat(2), nat(3)])])
        assert len(all_choice_functions(fam3)) == 4


class TestAntichainCorrespondence:
    def test_antichain_to_choice_and_back(self):
        cp = ChoicePoset(FAM, 2)
        for a in enumerate_maximal_antichains(cp):
            f = choice_from_antichain(FAM, a)
            levels = {FAM.block_of(x): n for n, x in a}
            assert antichain_from_choice(f, levels) == a

    def test_choice_to_antichain_and_back(self):
        for f in all_choice_functions(FAM):
            for levels in ({"a": 0, "b": 0}, {"a": 1, "b": 0}):
                a = antichain_from_choice(f, levels)
                assert choice_from_antichain(FAM, a) == f

    def test_rejects_non_maximal(self):
        with pytest.raises(NotMaximal):
            choice_from_antichain(FAM, [(0, nat(0))])
        with pytest.raises(NotMaximal):
            choice_from_antichain(
                FAM, [(0, nat(0)), (1, nat(1)), (0, nat(2))])

    def test_levels_validated(self):
        f = all_choice_functions(FAM)[0]
        with pytest.raises(InvalidInput):
            antichain_from_choice(f, {"a": 0})
        with pytest.raises(InvalidInput):
            antichain_from_choice(f, {"a": -1, "b": 0})

    def test_counts_match_product_formula(self):
        cases = [
            (Family([("a", [nat(0)])]), 1, 1),
            (FAM, 2, 8),
            (Family([("a", [nat(0), nat(1)]),
                     ("b", [nat(2), nat(3)])]), 1, 4),
        ]
        for fam, level, want in cases:
            cp = ChoicePoset(fam, level)
            assert len(enumerate_maximal_antichains(cp)) == want


class TestWitnessCorrespondence:
    def test_build_then_extract_is_identity(self):
        flat = FlatPoset(FAM)
        for f in all_choice_functions(FAM):
            tau = build_witness_flat(f)
            assert extract_choice_flat(tau, flat) == f

    def test_witness_is_forced_to_select(self):
        flat = FlatPoset(FAM)
        theta = theta_family(flat)
        f = all_choice_functions(FAM)[0]
        tau = build_witness_flat(f)
        assert forces_semantic(flat, ONE, subst(theta, "x", tau))

    def test_extract_rejects_unforced_names(self):
        flat = FlatPoset(FAM)
        with pytest.raises(PreconditionViolated):
            extract_choice_flat(check_name(nat(3)), flat)

    def test_witness_evaluates_to_chosen_element(self):
        flat = FlatPoset(FAM)
        f = ChoiceFunction(FAM, {"a": nat(1), "b": nat(2)})
        tau = build_witness_flat(f)
        assert eval_name(tau, generic_filter(flat, "a")) == nat(1)
        assert eval_name(tau, generic_filter(flat, "b")) == nat(2)


class TestThetaFamily:
    def test_shape_is_closed_under_one_variable(self):
        flat = FlatPoset(FAM)
        theta = theta_family(flat)
        tau = build_witness_flat(
            ChoiceFunction(FAM, {"a": nat(0), "b": nat(2)}))
        closed = subst(theta, "x", tau)
        assert forces_semantic(flat, ONE, closed)

    def test_wrong_value_is_not_forced(self):
        flat = FlatPoset(FAM)
        theta = theta_family(flat)
        # a constant that never lies in the active block
        bad = check_name(nat(3))
        assert not forces_semantic(flat, ONE, subst(theta, "x", bad))
