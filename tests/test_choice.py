"""Antichains and witness names versus choice functions."""

import itertools
import random

import pytest

from forcelab import (
    HF, BinaryTreePoset, ChoiceFunction, ChoicePoset, Cname, Eq,
    ExplicitPoset, Family, FlatPoset, ForceLabError, Implies, InvalidInput,
    Member, NotMaximal, ONE, PreconditionViolated, ValueEscapesBlock,
    all_choice_functions, antichain_from_choice, build_witness_flat,
    check_name, choice_from_antichain, conj, enumerate_maximal_antichains,
    eval_name, extract_choice_flat, extract_choice_wellordered,
    fn_omega_omega, forces_semantic, gamma_name, generic_filter, nat, PName,
    subst, theta_family,
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


class TestWellorderedExtraction:
    def test_marks_on_flat_poset(self):
        flat = FlatPoset(FAM)
        f = ChoiceFunction(FAM, {"a": nat(0), "b": nat(2)})
        tau = build_witness_flat(f)
        out = extract_choice_wellordered(
            flat, ["a", "b"], [FAM.blocks["a"], FAM.blocks["b"]], tau)
        assert [x for _, x in out] == [nat(0), nat(2)]
        for (q, x), mark in zip(out, ["a", "b"]):
            assert flat.le(q, flat.resolve(mark))

    def test_rejects_compatible_marks(self):
        flat = FlatPoset(FAM)
        tau = build_witness_flat(
            ChoiceFunction(FAM, {"a": nat(0), "b": nat(2)}))
        with pytest.raises(PreconditionViolated):
            extract_choice_wellordered(
                flat, ["a", ONE], [FAM.blocks["a"], FAM.blocks["b"]], tau)

    def test_rejects_undecided_name(self):
        flat = FlatPoset(FAM)
        # gamma is not forced into any fixed finite set of naturals
        with pytest.raises(PreconditionViolated):
            extract_choice_wellordered(
                flat, ["a"], [frozenset({nat(0)})], gamma_name(flat))


def reference_extract_choice_wellordered(poset, marks, block_sets, tau):
    """``extract_choice_wellordered`` asked condition by condition: one
    public forcing question per (extension, value)."""
    k = poset.kernel()
    blocks = [frozenset(xs) for xs in block_sets]
    if any(poset.compatible(a, b) or a == b
           for a, b in itertools.combinations(marks, 2)):
        raise PreconditionViolated(
            "the marked conditions are not pairwise incompatible")
    gamma = gamma_name(poset)
    guard = conj([
        Implies(Member(Cname(check_name(poset.condition_hf(a))), Cname(gamma)),
                Member(Cname(tau), Cname(check_name(HF(xs)))))
        for a, xs in zip(marks, blocks)])
    if not forces_semantic(poset, ONE, guard):
        raise PreconditionViolated(
            "the greatest element does not force the name into the marked sets")
    out = []
    for a, xs in zip(marks, blocks):
        found = next(((q, x)
                      for q in (k.conds[j] for j in k.exts[poset.index_of(a)])
                      for x in sorted(xs, key=HF.key)
                      if forces_semantic(
                          poset, q, Eq(Cname(tau), Cname(check_name(x))))),
                     None)
        if found is None:
            raise PreconditionViolated(
                f"no extension of {poset.condition_repr(a)} decides the name")
        out.append(found)
    return out


WELLORDERED_POSETS = {
    "flat": lambda: FlatPoset(Family(
        [("a", [nat(0), nat(1)]), ("b", [nat(2)]), ("c", [nat(3)])])),
    "chain": lambda: ExplicitPoset(
        ["p", "q", "1"], [("p", "q"), ("q", "1")], "1"),
    "vee": lambda: ExplicitPoset(
        ["a", "b", "c", "1"], [("a", "1"), ("b", "1"), ("c", "b")], "1"),
    "tree2": lambda: BinaryTreePoset(2),
    "fn22": lambda: fn_omega_omega(2, 2),
}


@pytest.mark.parametrize("case", sorted(WELLORDERED_POSETS))
def test_wellordered_extraction_matches_reference(case):
    """Names that take a natural along each generic filter, marks that are
    minimal conditions or one condition, and sets that mostly hold the
    name's values below each mark, so that most cases answer."""
    poset = WELLORDERED_POSETS[case]()
    k = poset.kernel()
    rng = random.Random(f"wellordered-{case}")
    minimals = [k.conds[a] for a in k.minimals]
    answered = raised = 0
    for _ in range(100):
        value = {a: nat(rng.randrange(3)) for a in k.minimals}
        entries = [(k.conds[a], check_name(y))
                   for a in k.minimals for y in value[a]]
        if rng.random() < 0.3:
            entries.append((rng.choice(k.conds), check_name(nat(0))))
        tau = PName(entries)
        if rng.random() < 0.5:
            marks = rng.sample(minimals, rng.randint(1, len(minimals)))
        else:
            marks = [rng.choice(k.conds)]
        blocks = []
        for m in marks:
            below = k.down[poset.index_of(m)]
            xs = {value[a] for a in k.minimals if below >> a & 1}
            if rng.random() < 0.3:
                xs.add(nat(rng.randrange(4)))
            if rng.random() < 0.1 and len(xs) > 1:
                xs.remove(max(xs, key=HF.key))
            blocks.append(xs)
        try:
            got = extract_choice_wellordered(poset, marks, blocks, tau)
        except ForceLabError as err:
            got = (type(err), err.code, str(err))
        try:
            want = reference_extract_choice_wellordered(
                poset, marks, blocks, tau)
        except ForceLabError as err:
            want = (type(err), err.code, str(err))
        assert got == want, (tau, marks, blocks)
        answered += isinstance(got, list)
        raised += not isinstance(got, list)
    assert answered > 2 * raised > 0


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
