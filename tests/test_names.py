"""Names over a poset and their evaluation along filters."""

import gc
import weakref

import pytest
from hypothesis import given, strategies as st

from forcelab import (
    ChoicePoset, EMPTY, EMPTY_NAME, Family, FlatPoset, HF, InjPoset,
    InvalidInput, MapPoset, ONE, TruncationEscape, check_name, eval_name, gamma_name, generic_filter,
    hereditary_closure, name_conditions, name_hf, nat, ordered_pair_name,
    PName, unordered_pair_name, kuratowski,
)

FAM = Family([("a", [nat(0), nat(1)]), ("b", [nat(2)])])
FLAT = FlatPoset(FAM)
G_A = generic_filter(FLAT, "a")
G_B = generic_filter(FLAT, "b")


def small_hf():
    return st.recursive(
        st.just(EMPTY), lambda kids: st.frozensets(kids, max_size=3).map(HF),
        max_leaves=6)


class TestBasics:
    def test_entries_deduplicate(self):
        tau = PName([("a", EMPTY_NAME), ("a", EMPTY_NAME)])
        assert len(tau.sorted_entries()) == 1

    def test_rank_counts_nesting(self):
        assert EMPTY_NAME.rank == 0
        assert PName([(ONE, EMPTY_NAME)]).rank == 1
        assert PName([(ONE, PName([(ONE, EMPTY_NAME)]))]).rank == 2

    def test_hashable_and_equal_by_entries(self):
        t1 = PName([("a", EMPTY_NAME), ("b", EMPTY_NAME)])
        t2 = PName([("b", EMPTY_NAME), ("a", EMPTY_NAME)])
        assert t1 == t2 and hash(t1) == hash(t2)

    @given(small_hf())
    def test_check_name_rank_matches_set_rank(self, x):
        assert check_name(x).rank == x.rank


class TestEvaluation:
    @given(small_hf())
    def test_check_name_evaluates_to_its_set(self, x):
        assert eval_name(check_name(x), G_A) == x
        assert eval_name(check_name(x), G_B) == x

    def test_eval_keeps_only_filter_entries(self):
        tau = PName([("a", check_name(nat(1))), ("b", check_name(nat(2)))])
        assert eval_name(tau, G_A) == HF([nat(1)])
        assert eval_name(tau, G_B) == HF([nat(2)])

    def test_gamma_evaluates_to_filter_image(self):
        gamma = gamma_name(FLAT)
        assert eval_name(gamma, G_A) == HF(
            [FLAT.condition_hf("a"), FLAT.condition_hf(FLAT.top)])

    def test_pair_name_values(self):
        t1, t2 = check_name(nat(1)), check_name(nat(2))
        assert eval_name(unordered_pair_name(t1, t2), G_A) == \
            HF([nat(1), nat(2)])
        assert eval_name(ordered_pair_name(t1, t2), G_A) == \
            kuratowski(nat(1), nat(2))

    def test_evaluated_name_is_freed_with_the_collector_disabled(self):
        # The generic filter is cached on the poset's kernel, so a memo kept
        # on it would hold every name ever evaluated along it.
        filt = generic_filter(FLAT, "b")
        gc.disable()
        try:
            inner = PName([("b", check_name(nat(17)))])
            tau = PName([("b", inner), ("a", EMPTY_NAME)])
            assert eval_name(tau, filt) == HF([HF([nat(17)])])
            refs = [weakref.ref(inner), weakref.ref(tau)]
            del inner, tau
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()


class TestStructure:
    def test_hereditary_closure_contains_children(self):
        tau = PName([("a", PName([(ONE, EMPTY_NAME)]))])
        closure = hereditary_closure([tau])
        assert EMPTY_NAME in closure and tau in closure
        assert len(closure) == 3

    def test_name_conditions(self):
        tau = PName([("a", PName([("b", EMPTY_NAME)]))])
        assert name_conditions(tau) == {"a", "b"}
        # The walk builds no canonical key, so a condition with none is
        # returned as it is; the grid walks refuse it (test_perms).
        assert name_conditions(PName([(1.5, tau)])) == {1.5, "a", "b"}

    def test_name_hf_encodes_top_entries(self):
        tau = PName([(ONE, EMPTY_NAME)])
        assert name_hf(tau) == HF([kuratowski(EMPTY, EMPTY)])

    def test_name_hf_rejects_unencodable_conditions(self):
        with pytest.raises(InvalidInput):
            name_hf(PName([("a", EMPTY_NAME)]))

    def test_name_hf_encodes_shared_subnames_once(self):
        def unshared(tau):
            return HF(kuratowski(EMPTY, unshared(child))
                      for _, child in tau.entries)

        for n in range(9):
            tau = check_name(nat(n))
            assert name_hf(tau) == unshared(tau)
        # The check-name of 40 reaches each smaller check-name along 2^k
        # paths; an encoding without sharing would never finish.
        assert len(name_hf(check_name(nat(40)))) == 40

    @pytest.mark.parametrize("poset, message", [
        (MapPoset(), "fn poset has no declared truncation window"),
        (InjPoset(), "inj poset has no declared truncation window"),
        (ChoicePoset(FAM), "choice poset has no declared level bound"),
    ], ids=["fn", "inj", "choice"])
    def test_gamma_name_needs_a_truncation(self, poset, message):
        with pytest.raises(TruncationEscape) as info:
            gamma_name(poset)
        assert info.value.code == "truncation-escape"
        assert str(info.value) == message

    def test_check_name_entries_use_one(self):
        tau = check_name(nat(2))
        assert all(c is ONE for c, _ in tau.sorted_entries())


def test_hereditary_closure_reads_a_chain_past_the_stack():
    # Keys are taken in rank order, so no key recursion goes deeper than
    # one level, and the closure is still sorted by key.
    chain = [EMPTY_NAME]
    for _ in range(1500):
        chain.append(PName([("a", chain[-1])]))
    assert hereditary_closure([chain[-1]]) == chain
