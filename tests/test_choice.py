"""Antichains and witness names versus choice functions."""

import random
from collections import Counter

import pytest

from forcelab import (
    EMPTY_NAME, HF, ChoiceFunction, ChoicePoset, Family, FlatPoset,
    ForceLabError, InvalidInput, NotMaximal, ONE, PName, PreconditionViolated,
    ValueEscapesBlock, all_choice_functions, antichain_from_choice,
    build_witness_flat, check_name, choice, choice_from_antichain, cli,
    enumerate_maximal_antichains, eval_name, extract_choice_flat,
    forces_semantic, generic_filter, is_maximal_antichain, nat, posets, subst,
    theta_family,
)
from forcelab.errors import SHOWN
from forcelab.formulas import _TOO_DEEP

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
    (lambda: ChoiceFunction(FAM, {1: nat(0), "z": nat(2)}),
     ("invalid-input", "unknown block labels: [1, 'z']")),
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


def test_unknown_labels_are_shown_within_the_refusal_bound():
    code, message = outcome(lambda: ChoiceFunction(
        FAM, {f"x{i}": nat(0) for i in range(1000)}))
    assert code == "invalid-input"
    assert message.startswith("unknown block labels: ['x0', 'x1', ")
    assert len(message) <= len("unknown block labels: ") + SHOWN + 3


# ---------------------------------------------------------------------------
# extraction reads each witness's values off the kernel once


def theta_extract(tau, flat):
    """Extraction as the definition states it: 1 must force theta(tau),
    and tau is evaluated along the generic filter at each block label."""
    if not forces_semantic(flat, ONE, subst(theta_family(flat), "x", tau)):
        raise PreconditionViolated(
            "the name is not forced to select from the generic block")
    return ChoiceFunction(flat.family, {
        lab: eval_name(tau, generic_filter(flat, lab))
        for lab in flat.family.labels})


BATTERY_FAMILIES = [
    FAM,
    Family([("a", [nat(0)]), ("b", [nat(1), nat(3)]), ("c", [nat(2)])]),
    Family([("p", [nat(1), nat(2), nat(3)]), ("q", [nat(0)])]),
]


@pytest.mark.parametrize("family", BATTERY_FAMILIES, ids=lambda f: repr(f))
def test_extraction_agrees_with_deciding_theta(family):
    # Seeded near-witnesses: each label's entries name the members of an
    # element of its block or of a small natural, then random entries,
    # rarely over a non-condition, are added and some dropped.  Extraction
    # gives what deciding theta(tau) and evaluating along each generic
    # filter gives, refusals included, on a poset of its own.  About 0.2 s.
    rng = random.Random(46)
    flat, ref = FlatPoset(family), FlatPoset(family)
    conds = [ONE, "1", *family.labels]
    pool = [EMPTY_NAME, *(check_name(nat(i)) for i in range(4))]
    seen = Counter()
    for _ in range(1000):
        entries = {(lab, check_name(m)) for lab in family.labels
                   for m in (rng.choice(family.sorted_block(lab))
                             if rng.random() < 0.5 else nat(rng.randrange(4)))}
        entries |= {("zz" if rng.random() < 0.02 else rng.choice(conds),
                     rng.choice(pool)) for _ in range(rng.randrange(3))}
        tau = PName(e for e in entries if rng.random() < 0.9)
        if rng.random() < 0.3:
            pool.append(tau)
        got = outcome(lambda: extract_choice_flat(tau, flat))
        assert got == outcome(lambda: theta_extract(tau, ref))
        seen[got[0]] += 1
    assert seen["ok"] >= 50 and seen["precondition-violated"] >= 50
    assert seen["unknown-condition"] >= 5, seen


def test_a_thm2_report_builds_and_decides_no_formula(monkeypatch):
    # Work pin: extraction substitutes into no formula, decides none,
    # evaluates along no filter and builds none.  Deciding theta(tau) for
    # each of the 18 witnesses, with a filter and an evaluation per block,
    # made 18, 18, 54 and 54 of these calls.
    counts = Counter()

    def counting(attr, fn):
        def wrapper(*args, **kwargs):
            counts[attr] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr in ("forces_semantic", "subst", "eval_name"):
        monkeypatch.setattr(choice, attr, counting(attr, getattr(choice, attr)))
    monkeypatch.setattr(posets.Filter, "__init__",
                        counting("Filter", posets.Filter.__init__))
    family = Family([("a", [nat(0), nat(1), nat(2)]), ("b", [nat(3), nat(4)]),
                     ("c", [nat(5), nat(6), nat(7)])])
    report = cli.run_thm2(["F"], family)
    assert (report["count"], report["complete"], report["roundtrip_ok"]) == \
        (18, True, True)
    assert counts == Counter()


@pytest.mark.parametrize("warm", [None, 200])
def test_a_witness_nested_past_the_stack_is_refused(warm):
    # A witness whose 4 x rank passes MAX_NESTING = 850 is refused before
    # any value is read, so rank 212 answers and 213 is refused, on a fresh
    # poset and on one that has just read a shallower witness of the same
    # kind.  The witness names the chain {{...{}...}} of its depth below
    # "a", and nothing below "b".
    chain = [nat(0)]
    for _ in range(213):
        chain.append(HF([chain[-1]]))
    family = Family([("a", [chain[212]]), ("b", [nat(0)])])

    def ask(n):
        flat = FlatPoset(family)
        tau = EMPTY_NAME
        if warm is not None:
            for _ in range(warm):
                tau = PName([("a", tau)])
            assert outcome(lambda: extract_choice_flat(tau, flat))[0] == \
                "precondition-violated"
        for _ in range(n - (warm or 0)):
            tau = PName([("a", tau)])
        assert tau.rank == n
        return outcome(lambda: extract_choice_flat(tau, flat))

    assert ask(212) == ("ok", ChoiceFunction(family, {"a": chain[212],
                                                       "b": nat(0)}))
    assert ask(213) == ("invalid-input", _TOO_DEEP)
    assert ask(211)[0] == "precondition-violated"
