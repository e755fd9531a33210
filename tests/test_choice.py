"""Antichains and witness names versus choice functions."""

import pytest

from forcelab import (
    ChoiceFunction, ChoicePoset, Family, FlatPoset, ForceLabError,
    InvalidInput, NotMaximal, ONE, PreconditionViolated, ValueEscapesBlock,
    all_choice_functions, antichain_from_choice, build_witness_flat,
    check_name, choice_from_antichain, enumerate_maximal_antichains,
    eval_name, extract_choice_flat, forces_semantic, generic_filter,
    is_maximal_antichain, nat, subst, theta_family,
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

    def test_unhashable_value_escapes_its_block(self):
        # A value that is no HF set is in no block, hashable or not.
        with pytest.raises(ValueEscapesBlock,
                           match=r"^\[1\] is not in block 'a'$"):
            ChoiceFunction(FAM, {"a": [1], "b": nat(2)})

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


# The refusal table: what each map between antichains and choice functions
# gives on malformed input, code and message, or its answer where it
# refuses nothing.  A member that is no condition is refused by the
# choice poset's rule even after a repeated block.
CP = ChoicePoset(FAM)
ANTICHAIN_PROBES = {
    "non-tuple member": [[0, nat(0)], (0, nat(2))],
    "bool level": [(True, nat(0)), (0, nat(2))],
    "negative level": [(-1, nat(0)), (0, nat(2))],
    "float level": [(1.0, nat(0)), (0, nat(2))],
    "element in no block": [(0, nat(5)), (0, nat(2))],
    "unhashable member": [(0, nat(0)), (0, [nat(2)])],
    "the top sentinel": [ONE, (0, nat(2))],
    "block picked twice": [(0, nat(0)), (1, nat(1)), (0, nat(2))],
    "block missing": [(0, nat(0))],
    "condition listed twice": [(0, nat(0)), (0, nat(0)), (0, nat(2))],
    "non-condition after a repeated block":
        [(0, nat(0)), (1, nat(1)), (0, nat(2)), "x"],
}
NOT_A_CONDITION = "not a condition of this choice poset: "
NOT_ONE_PER_BLOCK = ("not-maximal", "the antichain does not pick exactly one "
                     "element per block")
ANTICHAIN_REFUSALS = {
    "non-tuple member": ("unknown-condition", NOT_A_CONDITION + "[0, 0]"),
    "bool level": ("unknown-condition", NOT_A_CONDITION + "(True, 0)"),
    "negative level": ("unknown-condition", NOT_A_CONDITION + "(-1, 0)"),
    "float level": ("unknown-condition", NOT_A_CONDITION + "(1.0, 0)"),
    "element in no block": ("unknown-condition", NOT_A_CONDITION + "(0, 5)"),
    "unhashable member": ("unknown-condition", NOT_A_CONDITION + "(0, [2])"),
    "the top sentinel":
        ("invalid-input", "choice poset has no greatest element"),
    "block picked twice": NOT_ONE_PER_BLOCK,
    "block missing": NOT_ONE_PER_BLOCK,
    "condition listed twice": NOT_ONE_PER_BLOCK,
    "non-condition after a repeated block":
        ("unknown-condition", NOT_A_CONDITION + "'x'"),
}
F0 = ChoiceFunction(FAM, {"a": nat(0), "b": nat(2)})
LEVELS_ONCE = "levels must assign every block label exactly once"
CHOICE_REFUSALS = [
    (lambda: ChoiceFunction(FAM, {"a": nat(2), "b": nat(2)}),
     ("value-escapes-block", "2 is not in block 'a'")),
    (lambda: ChoiceFunction(FAM, {"a": True, "b": nat(2)}),
     ("value-escapes-block", "True is not in block 'a'")),
    (lambda: ChoiceFunction(FAM, {"a": nat(0)}),
     ("invalid-input", "no value chosen for blocks: ['b']")),
    (lambda: ChoiceFunction(FAM, {"a": nat(0), "b": nat(2), "c": nat(0)}),
     ("invalid-input", "unknown block labels: ['c']")),
    (lambda: ChoiceFunction(FAM, {"c": nat(5)}),
     ("invalid-input", "unknown block labels: ['c']")),
    (lambda: antichain_from_choice(F0, {"a": 0}),
     ("invalid-input", LEVELS_ONCE)),
    (lambda: antichain_from_choice(F0, {"a": 0, "b": 0, "c": 0}),
     ("invalid-input", LEVELS_ONCE)),
    (lambda: antichain_from_choice(F0, {"a": -1}),
     ("invalid-input", LEVELS_ONCE)),
    (lambda: antichain_from_choice(F0, {"a": True, "b": 0}),
     ("invalid-input",
      "the level of block 'a' must be an integer of at least 0, not True")),
    (lambda: antichain_from_choice(F0, {"a": -1, "b": 0}),
     ("invalid-input",
      "the level of block 'a' must be an integer of at least 0, not -1")),
    (lambda: antichain_from_choice(F0, {"a": 1.0, "b": 0}),
     ("invalid-input",
      "the level of block 'a' must be an integer of at least 0, not 1.0")),
    (lambda: antichain_from_choice(F0, {"b": 2.5, "a": -1}),
     ("invalid-input",
      "the level of block 'b' must be an integer of at least 0, not 2.5")),
]


def outcome(call):
    """A call's error code and message, or ("ok", its answer)."""
    try:
        return "ok", call()
    except ForceLabError as e:
        return e.code, str(e)


@pytest.mark.parametrize("probe", ANTICHAIN_PROBES)
def test_antichain_refusal_table(probe):
    antichain = ANTICHAIN_PROBES[probe]
    want = ANTICHAIN_REFUSALS[probe]
    assert outcome(lambda: choice_from_antichain(FAM, antichain)) == want
    assert outcome(lambda: is_maximal_antichain(CP, antichain)) == (
        ("ok", False) if want == NOT_ONE_PER_BLOCK else want)


@pytest.mark.parametrize("case", range(len(CHOICE_REFUSALS)))
def test_choice_function_refusal_table(case):
    call, want = CHOICE_REFUSALS[case]
    assert outcome(call) == want
