"""The forcing relation: two routes, mixing, and witness machinery."""

import contextlib
import gc
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest

from forcelab import (
    HF, And, BinaryTreePoset, ChoicePoset, Cname, CohenGridPoset, EMPTY_NAME,
    Eq, Exists, ExplicitPoset, Family, Filter, FlatPoset, Forall,
    ForceLabError, Implies, InName, InvalidInput, Member, NameSpace, Not,
    NotMaximalBelow, ONE, Or, OrdLT, PName, PreconditionViolated, RankLE,
    TruncationEscape, Var, check_name, disj, eval_name, fn_omega_omega,
    forces_semantic, forces_syntactic, gamma_name, generic_filter,
    hereditary_closure, inj_omega_omega, least_ordinal_name,
    mix, mp_witness_search, nat, ordered_pair_name, single_free_var, subst,
    unordered_pair_name,
)
from forcelab import cli
from forcelab import formulas as formulas_module
from forcelab import forcing as forcing_module
from forcelab.forcing import _Forcer
from forcelab.posets import Kernel

ROOT = Path(__file__).resolve().parent.parent

FAM = Family([("a", [nat(0), nat(1)]), ("b", [nat(2)])])
FLAT = FlatPoset(FAM)
GAMMA = gamma_name(FLAT)
A_CHECK = Cname(check_name(FLAT.condition_hf("a")))
B_CHECK = Cname(check_name(FLAT.condition_hf("b")))


def vee():
    return ExplicitPoset(["a", "b", "1"], [("a", "1"), ("b", "1")], "1")


def filter_at(k, i):
    """The filter generated by the condition numbered i in the kernel k:
    every condition it extends."""
    return Filter(k.poset, (c for c, m in zip(k.conds, k.down) if m >> i & 1))


class TestForcesOracle:
    def test_condition_forces_own_membership(self):
        phi = Member(A_CHECK, Cname(GAMMA))
        assert forces_semantic(FLAT, "a", phi)
        assert forces_syntactic(FLAT, "a", phi)

    def test_top_does_not_decide(self):
        phi = Member(A_CHECK, Cname(GAMMA))
        assert not forces_semantic(FLAT, ONE, phi)
        assert not forces_semantic(FLAT, ONE, Not(phi))
        assert not forces_syntactic(FLAT, ONE, phi)
        assert not forces_syntactic(FLAT, ONE, Not(phi))

    def test_top_forces_disjunction_of_blocks(self):
        phi = Or(Member(A_CHECK, Cname(GAMMA)), Member(B_CHECK, Cname(GAMMA)))
        assert forces_semantic(FLAT, ONE, phi)
        assert forces_syntactic(FLAT, ONE, phi)

    def test_exists_with_rank_bound(self):
        space = NameSpace(FLAT, (GAMMA,), 1)
        phi = Exists("x", RankLE(1), Member(Var("x"), Cname(GAMMA)))
        assert forces_semantic(FLAT, ONE, phi, space)
        assert forces_syntactic(FLAT, ONE, phi, space)

    def test_forall_in_name(self):
        two = check_name(nat(2))
        phi = Forall("x", InName(two), Member(Var("x"), Cname(two)))
        assert forces_semantic(FLAT, ONE, phi)
        assert forces_syntactic(FLAT, ONE, phi)

    def test_ord_bound(self):
        phi = Exists("x", OrdLT(3), Eq(Var("x"), Cname(check_name(nat(2)))))
        assert forces_semantic(FLAT, ONE, phi)
        assert not forces_semantic(
            FLAT, ONE,
            Exists("x", OrdLT(2), Eq(Var("x"), Cname(check_name(nat(2))))))

    def test_open_formula_rejected(self):
        with pytest.raises(InvalidInput):
            forces_semantic(FLAT, ONE, Member(Var("x"), Cname(GAMMA)))

    def test_check_names_on_topless_choice_poset(self):
        # Check-names carry the ONE sentinel, which every filter contains,
        # also on a poset with no greatest element.
        cp = ChoicePoset(FAM, 2)
        p = (0, nat(0))
        phi = Member(Cname(check_name(nat(0))), Cname(check_name(nat(1))))
        assert forces_semantic(cp, p, phi)
        assert forces_syntactic(cp, p, phi)
        assert eval_name(check_name(nat(1)), generic_filter(cp, p)) == nat(1)

    def test_semantic_route_never_runs_the_recursion(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the semantic route ran the recursion")

        for method in ("forcing", "atom"):
            monkeypatch.setattr(_Forcer, method, refuse)
        poset = FlatPoset(FAM)
        gamma = gamma_name(poset)
        a_check = Cname(check_name(poset.condition_hf("a")))
        phi = Member(a_check, Cname(gamma))
        assert forces_semantic(poset, "a", phi)
        assert not forces_semantic(poset, ONE, phi)
        theta = Or(And(Eq(Var("al"), Cname(check_name(nat(1)))), phi),
                   And(Eq(Var("al"), Cname(check_name(nat(2)))), Not(phi)))
        tau = least_ordinal_name(poset, ONE, 3, theta)
        assert eval_name(tau, generic_filter(poset, "a")) == nat(1)
        assert eval_name(tau, generic_filter(poset, "b")) == nat(2)
        space = NameSpace(poset, (gamma,), 1)
        found = mp_witness_search(poset, ONE, Member(Var("x"), Cname(gamma)),
                                  space)
        assert found is not None


FREE = Member(Var("x"), Cname(GAMMA))
RANKED = Exists("x", RankLE(1), FREE)
ABOVE = Exists("y", RankLE(2), Member(Var("y"), Var("x")))


@pytest.mark.parametrize("call, message", [
    (lambda: forces_semantic(FLAT, ONE, RANKED), "ambient name space"),
    (lambda: forces_syntactic(FLAT, ONE, RANKED), "ambient name space"),
    (lambda: forces_semantic(FLAT, ONE, FREE), "closed formula"),
    (lambda: forces_syntactic(FLAT, ONE, FREE), "closed formula"),
    (lambda: forces_semantic(FLAT, ONE, Exists("x", RankLE(1), ABOVE),
                             NameSpace(FLAT, (GAMMA,), 1)), "exceeds"),
    (lambda: forces_syntactic(FLAT, ONE, Exists("x", RankLE(1), ABOVE),
                              NameSpace(FLAT, (GAMMA,), 1)), "exceeds"),
    (lambda: mp_witness_search(FLAT, ONE, ABOVE,
                               NameSpace(FLAT, (GAMMA,), 1)), "exceeds"),
], ids=["semantic-rankle", "syntactic-rankle", "semantic-free",
        "syntactic-free", "semantic-above-space", "syntactic-above-space",
        "witness-above-space"])
def test_routes_refuse_what_they_cannot_decide(call, message):
    # A rank-bounded quantifier ranges over a name space, so without one
    # neither route can decide it, and a space of a lower rank bound holds
    # only part of its range; a free variable has no value.
    with pytest.raises(InvalidInput, match=message) as info:
        call()
    assert info.value.code == "invalid-input"


class TestRouteAgreement:
    """A compact version of the full agreement sweep in the acceptance
    suite: every formula from a small systematic family and a seeded random
    battery, every condition, both routes."""

    def formulas(self, poset, space):
        gamma = gamma_name(poset)
        checks = [Cname(check_name(nat(k))) for k in range(3)]
        atoms = [Member(c, Cname(gamma)) for c in checks]
        atoms += [Eq(checks[0], checks[1]), Eq(checks[1], checks[1]),
                  Member(checks[0], checks[2])]
        out = list(atoms)
        out += [Not(a) for a in atoms[:4]]
        out += [And(atoms[0], atoms[1]), Or(atoms[0], atoms[1]),
                Implies(atoms[0], atoms[1]), Implies(atoms[1], atoms[0])]
        body = Member(Var("x"), Cname(gamma))
        for bound in (InName(gamma), RankLE(1), OrdLT(2)):
            out.append(Exists("x", bound, body))
            out.append(Forall("x", bound, body))
        return out

    @pytest.mark.parametrize("make", [
        lambda: FlatPoset(FAM),
        vee,
        lambda: ExplicitPoset(
            ["p", "q", "r", "1"],
            [("p", "q"), ("q", "1"), ("r", "1")], "1"),
        lambda: fn_omega_omega(2, 2),
        lambda: inj_omega_omega(2, 2),
        lambda: BinaryTreePoset(2),
    ])
    def test_agreement(self, make):
        poset = make()
        space = NameSpace(poset, (gamma_name(poset),), 1)
        start = time.monotonic()
        # Quantifiers over random bodies, also over a name with no entry at
        # the top, and Boolean combinations of depth 3 that put quantified
        # formulas under negations and implications.
        rng = random.Random(11)
        x, gamma = Var("x"), Cname(gamma_name(poset))
        in_x = [Member(x, gamma), Eq(x, Cname(check_name(nat(1)))),
                Member(Cname(check_name(nat(0))), x)]
        below_top = PName((c, check_name(nat(j % 2)))
                          for j, c in enumerate(poset.conditions())
                          if c != poset.top)
        atoms = self.formulas(poset, space) + [
            q("x", bound, random_formula(rng, poset, lambda: rng.choice(in_x)))
            for q in (Exists, Forall)
            for bound in (InName(gamma.name), InName(below_top), OrdLT(2))
            for _ in range(3)]
        battery = atoms + [random_formula(rng, poset, lambda: rng.choice(atoms))
                           for _ in range(40)]
        for phi in battery:
            for p in poset.conditions():
                assert forces_semantic(poset, p, phi, space) == \
                    forces_syntactic(poset, p, phi, space), (phi, p)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


class TestMix:
    def test_mix_oracle(self):
        mixed = mix(FLAT, ONE, ["a", "b"],
                    {"a": check_name(nat(0)), "b": check_name(nat(1))})
        assert eval_name(mixed, generic_filter(FLAT, "a")) == nat(0)
        assert eval_name(mixed, generic_filter(FLAT, "b")) == nat(1)

    def test_mix_below_a_condition(self):
        poset = ExplicitPoset(
            ["x", "y", "p", "1"], [("x", "p"), ("y", "p"), ("p", "1")], "1")
        mixed = mix(poset, "p", ["x", "y"],
                    {"x": check_name(nat(2)), "y": EMPTY_NAME})
        assert eval_name(mixed, generic_filter(poset, "x")) == nat(2)
        assert eval_name(mixed, generic_filter(poset, "y")) == nat(0)

    def test_mix_forces_equality_on_each_piece(self):
        mixed = mix(FLAT, ONE, ["a", "b"],
                    {"a": check_name(nat(0)), "b": check_name(nat(1))})
        assert forces_semantic(
            FLAT, "a", Eq(Cname(mixed), Cname(check_name(nat(0)))))
        assert forces_semantic(
            FLAT, "b", Eq(Cname(mixed), Cname(check_name(nat(1)))))

    def test_one_as_the_only_member(self):
        # the names are looked up by the members as written, ONE included
        mixed = mix(FLAT, ONE, [ONE], {ONE: check_name(nat(1))})
        for label in ("a", "b"):
            assert eval_name(mixed, generic_filter(FLAT, label)) == nat(1)

    def test_rejects_non_antichain(self):
        with pytest.raises(NotMaximalBelow):
            mix(FLAT, ONE, ["a", ONE], {"a": EMPTY_NAME, ONE: EMPTY_NAME})

    def test_rejects_non_maximal(self):
        with pytest.raises(NotMaximalBelow):
            mix(FLAT, ONE, ["a"], {"a": EMPTY_NAME})

    def test_rejects_members_not_below_p(self):
        poset = vee()
        with pytest.raises(NotMaximalBelow):
            mix(poset, "a", ["b"], {"b": EMPTY_NAME})

    def test_rejects_missing_assignment(self):
        with pytest.raises(InvalidInput):
            mix(FLAT, ONE, ["a", "b"], {"a": EMPTY_NAME})

    def test_choice_poset_compatibility_past_the_truncation(self):
        # Two level-1 conditions over one block are compatible in the
        # choice poset, though no condition of the 2-level truncation
        # extends both; mix reads the kernel's compatibility masks, so
        # below their level-0 condition either one alone is a maximal
        # antichain and the two together are not an antichain.
        poset = ChoicePoset(FAM, 2)
        k = poset.kernel()
        p, x, y = (0, nat(0)), (1, nat(0)), (1, nat(1))
        i, j = k.index[x], k.index[y]
        assert k.compat[i] >> j & 1
        assert not k.down[i] & k.down[j]
        for member in (x, y):
            mixed = mix(poset, p, [member], {member: check_name(nat(5))})
            assert eval_name(mixed, generic_filter(poset, member)) == nat(5)
        with pytest.raises(NotMaximalBelow) as info:
            mix(poset, p, [x, y], {x: EMPTY_NAME, y: EMPTY_NAME})
        assert str(info.value) == "antichain members are compatible"


class TestLeastOrdinal:
    def theta(self):
        return Or(
            And(Eq(Var("al"), Cname(check_name(nat(1)))),
                Member(A_CHECK, Cname(GAMMA))),
            And(Eq(Var("al"), Cname(check_name(nat(2)))),
                Member(B_CHECK, Cname(GAMMA))))

    def test_oracle_values(self):
        tau = least_ordinal_name(FLAT, ONE, 3, self.theta())
        assert eval_name(tau, generic_filter(FLAT, "a")) == nat(1)
        assert eval_name(tau, generic_filter(FLAT, "b")) == nat(2)

    def test_name_forces_theta(self):
        theta = self.theta()
        tau = least_ordinal_name(FLAT, ONE, 3, theta)
        assert forces_semantic(FLAT, ONE, subst(theta, "al", tau))
        assert forces_syntactic(FLAT, ONE, subst(theta, "al", tau))

    def test_precondition_checked(self):
        theta = And(Eq(Var("al"), Cname(check_name(nat(1)))),
                    Member(A_CHECK, Cname(GAMMA)))
        with pytest.raises(PreconditionViolated):
            least_ordinal_name(FLAT, ONE, 3, theta)

    def test_kappa_validation(self):
        with pytest.raises(InvalidInput):
            least_ordinal_name(FLAT, ONE, 0, self.theta())


class TestWitnessSearch:
    def test_finds_first_forced_witness(self):
        space = NameSpace(FLAT, (GAMMA,), 1)
        theta = Member(Var("x"), Cname(GAMMA))
        tau = mp_witness_search(FLAT, ONE, theta, space)
        assert tau is not None
        assert forces_semantic(FLAT, ONE, subst(theta, "x", tau), space)

    def test_none_when_nothing_is_forced(self):
        space = NameSpace(FLAT, (GAMMA,), 1)
        theta = And(Member(Var("x"), Cname(GAMMA)),
                    Not(Eq(Var("x"), Var("x"))))
        assert mp_witness_search(FLAT, ONE, theta, space) is None


def interned_names(space):
    """How many class names the space has interned: each is kept with its
    class mask, checked or not."""
    return len(space._masks) + len(space._unchecked)


class TestNameSpace:
    def test_universe_is_child_closed(self):
        space = NameSpace(FLAT, (GAMMA,), 1)
        for tau in space.universe:
            for _, child in tau.sorted_entries():
                assert child in space

    def test_rank_filtering(self):
        space = NameSpace(FLAT, (GAMMA,), 1)
        assert all(n.rank <= 1 or n in (GAMMA,) or n.rank <= GAMMA.rank
                   for n in space.universe)
        assert EMPTY_NAME in space

    def test_readers_intern_only_what_they_read(self):
        # fn(2,2) at rank 1 has 48 classes.  A space interns each class's
        # name where a reader first reaches it, so a reader interns exactly
        # the names it reads; len runs the walk but interns none.  Along
        # each generic filter tau is 0 or 1-check, the first two names, so
        # both routes decide "exists x [rank <= 1] x = tau" after reading
        # two, and the witness search stops at tau's own class, the
        # twelfth, as does "tau in space".  An eager space would intern
        # all 48.
        poset = fn_omega_omega(2, 2)
        c = poset.conditions()
        tau = PName([(c[1], EMPTY_NAME), (c[3], EMPTY_NAME)])
        theta = Eq(Var("x"), Cname(tau))
        phi = Exists("x", RankLE(1), theta)
        interned = []
        for ask in (lambda s: forces_semantic(poset, ONE, phi, s),
                    lambda s: forces_syntactic(poset, ONE, phi, s),
                    lambda s: mp_witness_search(poset, ONE, theta, s),
                    lambda s: tau in s):
            space = NameSpace(poset, BASES, 1)
            assert ask(space)
            interned.append(interned_names(space))
            assert len(space) == 48 and interned_names(space) == interned[-1]
        assert interned == [2, 2, 12, 12]
        space = NameSpace(poset, BASES, 1)
        assert len(space) == 48 and interned_names(space) == 0
        assert space.universe.index(tau) == 11

    @pytest.mark.parametrize("rank", [1, 2])
    def test_the_walk_runs_only_past_the_empty_name(self, rank,
                                                     monkeypatch):
        # No condition of a choice poset is coded by the empty set, so
        # every universal "x in gamma" over a space fails at ∅, its first
        # name, and the witness search for "x not in gamma" stops there:
        # neither computes a pair mask, nor does "∅ in space".  Only ∅ has
        # rank 0, so neither does a read of rank 0: "x in 1-check" for every
        # x of rank 0, on either route, or names_of_rank_le(0).  Past ∅ the
        # walk runs once, whole: the masks of every (condition, child) pair
        # of the rank-bounded closure and of every closure name's entries.
        poset = ChoicePoset(FAM, 2)
        gamma = Cname(gamma_name(poset))
        closure = hereditary_closure(BASES)
        pool = 1 + sum(c != poset.top for c in poset.conditions())
        eager = pool * sum(n.rank < rank for n in closure) + \
            sum(len(n.entries) for n in closure)
        calls = []
        pair_mask = forcing_module._pair_mask
        monkeypatch.setattr(forcing_module, "_pair_mask",
                            lambda *args: calls.append(1) or pair_mask(*args))
        phi = Forall("x", RankLE(rank), Member(Var("x"), gamma))
        theta = Not(Member(Var("x"), gamma))
        zero = Forall("x", RankLE(0), Member(Var("x"), Cname(BASES[1])))
        for ask, want in (
                (lambda s, c: forces_semantic(poset, c, phi, s), False),
                (lambda s, c: forces_syntactic(poset, c, phi, s), False),
                (lambda s, c: mp_witness_search(poset, c, theta, s),
                 EMPTY_NAME),
                (lambda s, c: forces_semantic(poset, c, zero, s), True),
                (lambda s, c: forces_syntactic(poset, c, zero, s), True),
                (lambda s, c: s.names_of_rank_le(0), (EMPTY_NAME,))):
            space = NameSpace(poset, BASES, rank)
            for c in poset.conditions():
                assert ask(space, c) == want, c
            assert EMPTY_NAME in space
            assert calls == []
            for read in (lambda: space.universe, lambda: len(space)):
                read()
                assert len(calls) == eager
            calls.clear()
        space = NameSpace(poset, BASES, rank)
        len(space)
        space.universe
        assert len(calls) == eager

    def test_size_guard(self):
        big = Family([(lab, [nat(3 * i + k) for k in range(3)])
                      for i, lab in enumerate(("a", "b", "c", "d", "e", "f"))])
        with pytest.raises(InvalidInput):
            NameSpace(FlatPoset(big), (check_name(nat(2)),), 5)

    def test_negative_rank_rejected(self):
        with pytest.raises(InvalidInput):
            NameSpace(FLAT, (), -1)

    @pytest.mark.parametrize("call", [
        lambda space: NameSpace(FLAT, 5, 1),
        lambda space: NameSpace(FLAT, [1], 1),
        lambda space: NameSpace("x", [], 1),
        lambda space: [1] in space,
        lambda space: space.names_of_rank_le("x"),
        lambda space: forces_semantic(
            FLAT, ONE, Member(A_CHECK, Cname(GAMMA)), 5),
        lambda space: mp_witness_search(
            FLAT, ONE, Member(Var("x"), Cname(GAMMA)), None),
    ], ids=["bases-int", "base-int", "poset-str", "contains-list",
            "rank-str", "space-int", "witness-without-space"])
    def test_malformed_space_arguments_are_invalid_input(self, call):
        space = NameSpace(FLAT, (GAMMA,), 1)
        with pytest.raises(InvalidInput) as info:
            call(space)
        assert info.value.code == "invalid-input"


BASES = (EMPTY_NAME, check_name(nat(1)))


def nots(depth, phi):
    """phi under depth negations."""
    for _ in range(depth):
        phi = Not(phi)
    return phi


def nested_name(levels):
    """A name nesting ``levels`` single entries (a, ...) over the empty
    name."""
    tau = EMPTY_NAME
    for _ in range(levels):
        tau = PName([("a", tau)])
    return tau


# Each entry point asked phi over a poset, with a space over it: the
# witness search and the least-ordinal name decide phi joined with an atom
# in their variable, one level deeper, over names of rank 3 (Γ and
# 3-check).
NESTED_PAST_THE_STACK = {
    "semantic": lambda poset, space, phi: forces_semantic(poset, ONE, phi),
    "syntactic": lambda poset, space, phi: forces_syntactic(poset, ONE, phi),
    "witness": lambda poset, space, phi: mp_witness_search(
        poset, ONE, And(phi, Member(Var("x"), Cname(GAMMA))), space),
    "least-ordinal": lambda poset, space, phi: least_ordinal_name(
        poset, ONE, 3, Or(phi, Member(Var("x"), Cname(check_name(nat(3)))))),
}

# The deepest input each entry point answers, as n negations over
# a-check = a-check and as 0-check in a name nested n levels.  An input
# whose 2 x depth + 4 x rank passes MAX_NESTING = 850 is refused: the
# negations' depth is n + 1 (n + 2 with the joined atom, whose rank 3
# adds 12), and the name's rank is n.
DEEPEST = {"semantic": (424, 212), "syntactic": (424, 212),
           "witness": (417, 211), "least-ordinal": (417, 211)}


def nesting_outcome(call, poset, space, phi):
    """What an entry point gives: its answer, or a refusal's code."""
    try:
        return call(poset, space, phi)
    except ForceLabError as e:
        if e.code == "invalid-input":
            assert "nested too deeply" in str(e)
        return e.code


@pytest.mark.parametrize("call, deepest", zip(NESTED_PAST_THE_STACK.values(),
                                               DEEPEST.values()),
                         ids=NESTED_PAST_THE_STACK.keys())
def test_formula_nested_past_the_stack_is_refused(call, deepest):
    # The refusal reads the input's nesting before any recursion, so each
    # depth, on either side of the bound and far past it, gets one outcome
    # on a fresh poset and space and on ones that have just decided a
    # shallower input of the same kind, whose memoized levels would shorten
    # the recursion.  The formula rows include the old ones: 600 negations
    # are refused, 300 answer.
    def ask(deep, n, warm):
        poset = FlatPoset(FAM)
        space = NameSpace(poset, (GAMMA,), 1)
        if warm is not None:
            assert nesting_outcome(call, poset, space, deep(warm)) != \
                "invalid-input"
        return nesting_outcome(call, poset, space, deep(n))

    kinds = ((lambda n: nots(n, Eq(A_CHECK, A_CHECK)), 300, 600),
             (lambda n: Member(Cname(EMPTY_NAME), Cname(nested_name(n))),
              200, 400))
    for (deep, warm, far), last in zip(kinds, deepest):
        for n in (warm, last, last + 1, far):
            fresh = ask(deep, n, None)
            assert (fresh == "invalid-input") is (n > last), (n, fresh)
            assert ask(deep, n, warm) == fresh, n


@pytest.mark.parametrize("entry", ["mix", "name-space"])
def test_a_name_nested_past_the_stack_is_refused(entry):
    # mix and NameSpace read a name's canonical key, which recurses once
    # per rank, so each applies the one nesting rule to the names it is
    # given: one whose 4 x rank passes MAX_NESTING = 850 is refused before
    # any key is read.  Rank 212 answers; 213 and 1,500 are refused, as
    # extract_choice_flat refuses them.
    poset = FlatPoset(Family([("a", [nat(0)]), ("b", [nat(1)])]))
    calls = {
        "mix": lambda tau: mix(poset, ONE, ("a", "b"),
                               {"a": tau, "b": EMPTY_NAME}),
        "name-space": lambda tau: NameSpace(poset, (EMPTY_NAME, tau), 0),
    }
    assert calls[entry](nested_name(212)) is not None
    for n in (213, 1500):
        with pytest.raises(InvalidInput) as info:
            calls[entry](nested_name(n))
        assert str(info.value) == formulas_module._TOO_DEEP, n


def test_a_refusal_leaves_its_space_readable():
    # A route refused past the stack may be cut short while it interns
    # its space's names.  The depths bracket the stack's limit, so some
    # refusal lands inside the interning; each space must read as a fresh
    # one does afterwards.
    limit = sys.getrecursionlimit() // 2
    theta = Exists("x", RankLE(1), Eq(Var("x"), Cname(check_name(nat(7)))))
    eager = NameSpace(FLAT, BASES, 1).universe
    refused = 0
    for depth in range(limit - 200, limit + 20):
        space = NameSpace(FLAT, BASES, 1)
        try:
            forces_semantic(FLAT, ONE, nots(depth, theta), space)
        except InvalidInput:
            refused += 1
        assert space.universe == eager, depth
    assert 0 < refused < 220


def chain():
    return ExplicitPoset(["p", "q", "1"], [("p", "q"), ("q", "1")], "1")


# (poset, rank bound) pairs for the quotient oracle: 256, 64, 512, 128 and
# 128 names before the quotient.
QUOTIENT_CASES = {
    "flat3": (lambda: FlatPoset(Family(
        [("a", [nat(0), nat(1)]), ("b", [nat(2)]), ("c", [nat(3)])])), 2),
    "explicit3": (chain, 2),
    "fn22": (lambda: fn_omega_omega(2, 2), 1),
    "tree2": (lambda: BinaryTreePoset(2), 1),
    "choice": (lambda: ChoicePoset(FAM, 2), 1),
}
# Base names that are not check-names, as (poset, bases, rank bound).  In
# "chain-2" and "chain-3" the base name has the values of check(1) along
# every filter, so the assembled check(1) is kept and the base name stays
# only as a child of kept names.  In "flat-rank" some class has a member of
# lower rank and more entries than another, and in "flat-lex" some class has
# two members of one rank and size, which their sorted entries order.
IRREGULAR_CASES = {
    "chain-2": (chain, (EMPTY_NAME, PName(
        [(ONE, EMPTY_NAME), ("q", EMPTY_NAME)])), 2),
    "chain-3": (chain, (EMPTY_NAME, PName(
        [(ONE, EMPTY_NAME), ("q", EMPTY_NAME)])), 3),
    "flat-rank": (lambda: FlatPoset(FAM), (
        PName([(ONE, EMPTY_NAME)]),
        PName([("b", PName([("a", EMPTY_NAME)]))])), 3),
    "flat-lex": (lambda: FlatPoset(FAM), (
        PName([(ONE, PName([("a", EMPTY_NAME)]))]),), 2),
}


def unquotiented_universe(poset, bases, rank_bound):
    """Every name the space considers, without the quotient: the closure of
    the bases plus the names assembled from all 2^pairs subsets."""
    closure = hereditary_closure(bases)
    eligible = [s for s in closure if s.rank < rank_bound]
    pool = [ONE] + [c for c in poset.conditions() if c != poset.top]
    pairs = [(c, s) for c in pool for s in eligible]
    names = set(closure)
    for size in range(len(pairs) + 1):
        names.update(PName(combo)
                      for combo in itertools.combinations(pairs, size))
    return tuple(sorted(names, key=PName.key))


def unquotiented(phi, universe):
    """phi with each ``RankLE(k)`` bound rewritten as ``InName`` of the name
    whose entries are (ONE, n) for the names n of rank at most k in
    ``universe``.  Both bounds range over (full mask, name) pairs in
    canonical order, so the rewrite, decided with no name space, answers as
    phi over a space whose universe is ``universe``."""
    if isinstance(phi, RankLE):
        return InName(PName((ONE, n) for n in universe if n.rank <= phi.bound))
    if isinstance(phi, formulas_module._Formula):
        return type(phi)(*(unquotiented(v, universe) for v in phi._values()))
    return phi


def bounds(phi):
    """The quantifier bounds of phi, outermost first."""
    return [v for v in formulas_module._leaves(phi)
            if isinstance(v, (InName, RankLE, OrdLT))]


def values(poset, tau):
    """A name's value along the filter generated by each condition."""
    k = poset.kernel()
    return tuple(eval_name(tau, filter_at(k, i)) for i in range(len(k.conds)))


def rankle_battery(poset, rank):
    v, u = Var("v"), Var("u")
    gamma = Cname(gamma_name(poset))
    one = Cname(check_name(nat(1)))
    atoms = [Member(v, gamma), Member(one, v), Eq(v, one), Member(v, one)]
    out = [q("v", RankLE(rank), a) for a in atoms for q in (Exists, Forall)]
    out += [Exists("v", RankLE(0), Eq(v, one)),
            Forall("v", RankLE(rank),
                   Exists("u", RankLE(0), Or(Eq(u, v), Member(u, v))))]
    return out


class TestNameSpaceQuotient:
    """The quotient against the unquotiented enumeration it replaces."""

    @staticmethod
    def first_of_each_class(poset, bases, rank):
        first = {}
        for n in unquotiented_universe(poset, bases, rank):
            first.setdefault(values(poset, n), n)
        return first

    @staticmethod
    def assert_same_answers(poset, space, universe, rank):
        """Both routes at every condition answer the battery over the space
        as its rewrite over the unquotiented universe, with no space."""
        for phi in rankle_battery(poset, rank):
            full = unquotiented(phi, universe)
            for c in poset.conditions():
                want = forces_semantic(poset, c, full)
                assert forces_semantic(poset, c, phi, space) == want, (phi, c)
                assert forces_syntactic(poset, c, phi, space) == want, (phi, c)
                assert forces_syntactic(poset, c, full) == want, (phi, c)

    @pytest.mark.parametrize("case", sorted(QUOTIENT_CASES))
    def test_rewrite_ranges_over_the_unquotiented_names(self, case):
        make, rank = QUOTIENT_CASES[case]
        poset = make()
        universe = unquotiented_universe(poset, BASES, rank)
        assert len(universe) == {"flat3": 256, "explicit3": 64, "fn22": 512,
                                 "tree2": 128, "choice": 128}[case]
        for phi in rankle_battery(poset, rank):
            before, after = bounds(phi), bounds(unquotiented(phi, universe))
            assert all(isinstance(b, RankLE) for b in before), phi
            assert all(isinstance(a, InName) for a in after), phi
            assert len(after) == len(before), phi
            for b, a in zip(before, after):
                assert list(a.name.sorted_entries()) == \
                    [(ONE, n) for n in universe if n.rank <= b.bound], phi

    @pytest.mark.parametrize("case", sorted(QUOTIENT_CASES))
    def test_one_first_name_per_class(self, case):
        make, rank = QUOTIENT_CASES[case]
        poset = make()
        space = NameSpace(poset, BASES, rank)
        kept = {values(poset, n): n for n in space.universe}
        assert len(kept) == len(space)
        assert kept == self.first_of_each_class(poset, BASES, rank)
        assert list(space.universe) == sorted(space.universe, key=PName.key)
        for tau in space.universe:
            assert all(child in space for _, child in tau.entries)

    @pytest.mark.parametrize("case", sorted(IRREGULAR_CASES))
    def test_irregular_base_names(self, case):
        make, bases, rank = IRREGULAR_CASES[case]
        poset = make()
        space = NameSpace(poset, bases, rank)
        first = self.first_of_each_class(poset, bases, rank)
        assert space.universe == tuple(hereditary_closure(first.values()))
        self.assert_same_answers(
            poset, space, unquotiented_universe(poset, bases, rank), rank)

    @pytest.mark.parametrize("case", sorted(QUOTIENT_CASES))
    def test_routes_answer_as_without_quotient(self, case):
        make, rank = QUOTIENT_CASES[case]
        poset = make()
        self.assert_same_answers(
            poset, NameSpace(poset, BASES, rank),
            unquotiented_universe(poset, BASES, rank), rank)

    def test_rank_prefixes(self):
        space = NameSpace(FLAT, (GAMMA,), 2)
        for r in range(-1, GAMMA.rank + 2):
            assert space.names_of_rank_le(r) == tuple(
                n for n in space.universe if n.rank <= r)

    def test_depth3_tree_rankle_routes_agree(self):
        tree = BinaryTreePoset(3)
        start = time.monotonic()
        space = NameSpace(tree, BASES, 1)
        v = Var("v")
        gamma = Cname(gamma_name(tree))
        c = Cname(check_name(tree.condition_hf("01")))
        battery = [
            Member(c, gamma),
            Exists("v", InName(gamma_name(tree)), Eq(v, c)),
            Forall("v", OrdLT(2), Not(Member(v, c))),
        ]
        battery += [q("v", RankLE(1), body)
                    for body in (Eq(v, c), Member(c, v), Member(v, gamma))
                    for q in (Exists, Forall)]
        for phi in battery:
            for p in tree.conditions():
                assert forces_semantic(tree, p, phi, space) == \
                    forces_syntactic(tree, p, phi, space), (phi, p)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"

    @pytest.mark.parametrize("make", [lambda: BinaryTreePoset(3),
                                      lambda: fn_omega_omega(2, 2)],
                             ids=["tree3", "fn22"])
    def test_over_cap_refused_before_compiling(self, make):
        poset = make()
        with pytest.raises(InvalidInput) as info:
            NameSpace(poset, BASES, 2)
        assert info.value.code == "invalid-input"
        assert poset._kernel is None

    def test_over_cap_refusal_counts_without_enumerating(self):
        # The cap reads the truncation's size: a grid of 3^64 conditions is
        # refused at once, with nothing enumerated or compiled.
        poset = CohenGridPoset(8, 8)
        start = time.monotonic()
        with pytest.raises(InvalidInput):
            NameSpace(poset, BASES, 1)
        assert time.monotonic() - start < 1.0
        assert poset._kernel is None


# (poset, bases, rank bound) of every space the class-mask values are
# checked on: the quotient and irregular cases, and inj(2,2) at rank 1.
MASK_VALUE_CASES = {
    **{case: (make, BASES, rank)
       for case, (make, rank) in QUOTIENT_CASES.items()},
    **IRREGULAR_CASES,
    "inj22": (lambda: inj_omega_omega(2, 2), BASES, 1),
}


def assembled(space):
    """The names the space assembled in its walk, stale or not.  A space
    interns its names only as they are read, so this reads them all."""
    space.universe
    return set(space._masks) | set(space._unchecked)


class TestClassMaskValues:
    """NameSpace._value reads an assembled name's value off its class mask;
    the semantic route reads it there, and the syntactic route never does."""

    @pytest.mark.parametrize("case", sorted(MASK_VALUE_CASES))
    def test_value_is_the_kernels_and_the_filters(self, case):
        make, bases, rank = MASK_VALUE_CASES[case]
        poset = make()
        k = poset.kernel()
        space = NameSpace(poset, bases, rank)
        assert not hasattr(space, "value")  # the reader is internal
        assert assembled(space) & set(space.universe)
        for tau in space.universe:
            for a in k.minimals:
                got = space._value(tau, a)
                assert got is k.value(tau, a), (tau, a)
                assert got is eval_name(tau, filter_at(k, a)), (tau, a)

    @pytest.mark.parametrize("case", sorted(QUOTIENT_CASES))
    def test_semantic_route_reads_no_assembled_name_off_the_kernel(
            self, case, monkeypatch):
        make, rank = QUOTIENT_CASES[case]
        poset = make()
        space = NameSpace(poset, BASES, rank)
        names = assembled(space)
        read = {"space": 0, "depth": 0}
        kernel_value, space_value = Kernel.value, NameSpace._value

        def kernel_reads(self, tau, i):
            # Kernel.value recurses into children, which may be assembled:
            # only a read from outside it counts.
            assert read["depth"] or tau not in names, \
                f"Kernel.value read {tau!r}"
            read["depth"] += 1
            try:
                return kernel_value(self, tau, i)
            finally:
                read["depth"] -= 1

        def space_reads(self, tau, i):
            read["space"] += tau in names
            return space_value(self, tau, i)

        monkeypatch.setattr(Kernel, "value", kernel_reads)
        monkeypatch.setattr(NameSpace, "_value", space_reads)
        battery = rankle_battery(poset, rank)
        for phi in battery:
            for c in poset.conditions():
                forces_semantic(poset, c, phi, space)
        for theta in (phi.body for phi in battery[:8]):
            for c in poset.conditions():
                mp_witness_search(poset, c, theta, space)
        assert read["space"] > 0

    @pytest.mark.parametrize("case", sorted(QUOTIENT_CASES))
    def test_syntactic_route_reads_no_class_mask(self, case, monkeypatch):
        make, rank = QUOTIENT_CASES[case]
        poset = make()
        battery = rankle_battery(poset, rank)
        universe = unquotiented_universe(poset, BASES, rank)
        want = [[forces_syntactic(poset, c, unquotiented(phi, universe))
                 for c in poset.conditions()] for phi in battery]

        def refuse(*args):
            raise AssertionError("a class mask was read")

        monkeypatch.setattr(NameSpace, "_value", refuse)
        space = NameSpace(poset, BASES, rank)
        assert [[forces_syntactic(poset, c, phi, space)
                 for c in poset.conditions()] for phi in battery] == want
        with pytest.raises(AssertionError):
            forces_semantic(poset, poset.conditions()[0], battery[0], space)

    def test_stale_names_answer_as_without_quotient(self):
        # A space whose names an earlier, equal space still holds gets those
        # interned names back, with the earlier poset's condition objects.
        gc.disable()
        try:
            first = fn_omega_omega(2, 2)
            earlier = NameSpace(first, BASES, 1)
            phi = rankle_battery(first, 1)[0]
            forces_semantic(first, ONE, phi, earlier)
            stale = assembled(earlier)
            poset = fn_omega_omega(2, 2)
            k = poset.kernel()
            space = NameSpace(poset, BASES, 1)
            space.universe  # interns the space's names
            assert not space._masks
            assert set(space._unchecked) == stale
            own = set(map(id, k.conds))
            assert any(c is not ONE and id(c) not in own
                       for tau in space._unchecked for c, _ in tau.entries)
            universe = unquotiented_universe(poset, BASES, 1)
            TestNameSpaceQuotient.assert_same_answers(
                poset, space, universe, 1)
            x = Var("x")
            thetas = [Member(x, Cname(gamma_name(poset))),
                      Eq(x, Cname(check_name(nat(1)))),
                      Member(Cname(EMPTY_NAME), x),
                      Eq(x, Cname(space.universe[-1]))]
            for theta in thetas:
                for c in poset.conditions():
                    want = next((tau for tau in universe if forces_semantic(
                        poset, c, subst(theta, "x", tau))), None)
                    assert mp_witness_search(poset, c, theta, space) is \
                        want, (theta, c)
        finally:
            gc.enable()

    def test_a_stale_name_meets_the_kernel_once(self, monkeypatch):
        # The semantic route's check of a stale name and the syntactic
        # route's entry masks are one kernel lookup, so each of the stale
        # names' entry conditions, foreign objects that the kernel does not
        # index, is resolved once however many reads it gets.
        gc.disable()
        try:
            first = fn_omega_omega(2, 2)
            earlier = NameSpace(first, BASES, 1)
            stale = assembled(earlier)
            poset = fn_omega_omega(2, 2)
            k = poset.kernel()
            space = NameSpace(poset, BASES, 1)
            assert set(assembled(space)) == stale
            calls = []
            resolve = poset.resolve

            def counting(c):
                calls.append(c)
                return resolve(c)

            monkeypatch.setattr(poset, "resolve", counting)
            for phi in rankle_battery(poset, 1)[:3]:
                for c in poset.conditions():
                    forces_semantic(poset, c, phi, space)
                    forces_syntactic(poset, c, phi, space)
            # Every name the kernel read, stale ones among them, counts its
            # entries' foreign conditions once: a constant such as gamma
            # may be stale too, interned by an earlier equal poset's copy.
            own = set(map(id, k.conds))
            read = [c for tau in k._entries for c, _ in tau.entries
                    if c is not ONE and id(c) not in own]
            assert stale & set(k._entries)
            assert len(calls) == len(read)
        finally:
            gc.enable()


def reference_sat(phi, filt, space, env=None):
    """Satisfaction along one filter by brute force: a quantifier binds the
    values of its range along the filter, not names, and atoms read bound
    variables from ``env``.  Shares nothing with the library's routes."""
    env = env or {}

    def value(term):
        if isinstance(term, Var):
            return env[term.name]
        return eval_name(term.name, filt)

    if isinstance(phi, Member):
        return value(phi.left) in value(phi.right)
    if isinstance(phi, Eq):
        return value(phi.left) == value(phi.right)
    if isinstance(phi, Not):
        return not reference_sat(phi.body, filt, space, env)
    if isinstance(phi, (And, Or, Implies)):
        left = reference_sat(phi.left, filt, space, env)
        right = reference_sat(phi.right, filt, space, env)
        if isinstance(phi, And):
            return left and right
        if isinstance(phi, Or):
            return left or right
        return not left or right
    bound = phi.bound
    if isinstance(bound, InName):
        values = eval_name(bound.name, filt).members
    elif isinstance(bound, RankLE):
        values = {eval_name(s, filt)
                  for s in space.names_of_rank_le(bound.bound)}
    else:
        values = [nat(i) for i in range(bound.bound)]
    results = (reference_sat(phi.body, filt, space, {**env, phi.var: v})
               for v in values)
    return any(results) if isinstance(phi, Exists) else all(results)


def boolean_value(poset):
    """The Boolean-valued model's valuation over a finite poset, whose
    complete Boolean algebra is the power set of its minimal conditions:
    the returned ``value(phi, env)`` is ||phi|| under env as a mask of
    them, by Jech's clauses (Set Theory, 2003, ch. 14), with m(c), the
    minimal conditions below c, for the value of an entry's condition:

        ||s in t|| = join over (c, r) in t of m(c) & ||s = r||,
        ||s = t||  = meet over (c, r) in s of ~m(c) | ||r in t||, met with
                     the same for t and s swapped;

    ~ is the complement within the minimal mask, and exists and forall
    are the join and the meet over the bound's range, the entries of an
    InName bound's name or (1, n-check) for each n below an OrdLT bound.
    It evaluates no name along a filter and shares no code with the
    library's routes, only the kernel's order masks; p forces phi exactly
    when m(p) lies in ||phi||."""
    k = poset.kernel()
    memo = {}

    def m(c):
        return k.minimal if c is ONE else \
            k.down[poset.index_of(c)] & k.minimal

    def atom(kind, s, t):
        key = (kind, s, t)
        if key not in memo:
            if kind is Member:
                out = 0
                for c, r in t.entries:
                    out |= m(c) & atom(Eq, s, r)
            else:
                out = k.minimal
                for a, b in ((s, t), (t, s)):
                    for c, r in a.entries:
                        out &= ~m(c) | atom(Member, r, b)
            memo[key] = out
        return memo[key]

    def value(phi, env=None):
        env = env or {}
        key = (phi, *(env[v] for v in sorted(phi.free)))
        if key in memo:
            return memo[key]
        if isinstance(phi, (Member, Eq)):
            s, t = (env[x.name] if isinstance(x, Var) else x.name
                    for x in (phi.left, phi.right))
            out = atom(type(phi), s, t)
        elif isinstance(phi, Not):
            out = k.minimal & ~value(phi.body, env)
        elif isinstance(phi, (And, Or, Implies)):
            left, right = value(phi.left, env), value(phi.right, env)
            out = left & right if isinstance(phi, And) else \
                left | right if isinstance(phi, Or) else \
                k.minimal & (~left | right)
        else:
            bound = phi.bound
            assert isinstance(bound, (InName, OrdLT)), bound
            range_ = bound.name.entries if isinstance(bound, InName) else \
                [(ONE, check_name(nat(i))) for i in range(bound.bound)]
            inner = [(m(c), value(phi.body, {**env, phi.var: r}))
                     for c, r in range_]
            if isinstance(phi, Exists):
                out = 0
                for mc, v in inner:
                    out |= mc & v
            else:
                out = k.minimal
                for mc, v in inner:
                    out &= ~mc | v
        memo[key] = out
        return out

    return value


class TestReferenceOracle:
    """The semantic route against brute-force satisfaction.  The route reads
    quantifier ranges through the instances the syntactic route also uses,
    and names' values off their class masks or off the entry masks that
    the syntactic route's atoms read too.  The oracle evaluates names along
    each filter with ``eval_name``, which shares no code with either route,
    so it keeps the semantic route honest on its own."""

    @pytest.mark.parametrize("case", sorted(QUOTIENT_CASES))
    def test_semantic_route_matches_brute_force(self, case):
        make, rank = QUOTIENT_CASES[case]
        poset = make()
        space = NameSpace(poset, BASES, rank)
        k = poset.kernel()
        gamma = Cname(gamma_name(poset))
        # Bodies that can hold at a name whose entry is outside the filter.
        outside = [q("x", InName(gamma.name), Not(Member(Var("x"), gamma)))
                   for q in (Exists, Forall)]
        battery = TestRouteAgreement().formulas(poset, space) + \
            rankle_battery(poset, rank) + outside
        for phi in battery:
            along = {a: reference_sat(phi, filter_at(k, a), space)
                     for a in k.minimals}
            for i, c in enumerate(k.conds):
                want = all(v for a, v in along.items() if k.down[i] >> a & 1)
                assert forces_semantic(poset, c, phi, space) == want, (phi, c)


def extensions(poset, p):
    k = poset.kernel()
    down = k.down[poset.index_of(p)]
    return [q for j, q in enumerate(k.conds) if down >> j & 1]


def reference_least_ordinal_name(poset, p, kappa, theta):
    """``least_ordinal_name`` asked condition by condition: one public
    forcing question per (extension, ordinal), with ``Not`` and
    ``Exists(OrdLT)`` formulas."""
    if kappa < 1:
        raise InvalidInput("kappa must be at least 1")
    var = single_free_var(theta)
    if not forces_semantic(poset, p, Exists(var, OrdLT(kappa), theta)):
        raise PreconditionViolated(
            "the condition does not force an ordinal witness below kappa")
    entries = []
    for q in extensions(poset, p):
        for beta in range(kappa):
            beta_check = check_name(nat(beta))
            if not forces_semantic(
                    poset, q, Not(subst(theta, var, beta_check))):
                break
            entries.append((q, beta_check))
    return PName(entries)


def outcome(construct):
    """A construction's answer, or its error's class, code and message."""
    try:
        return construct()
    except ForceLabError as err:
        return (type(err), err.code, str(err))


def random_formula(rng, poset, atoms):
    """A random Boolean combination, depth at most 3, of ``atoms()``."""
    def formula(depth):
        if depth == 0 or rng.random() < 0.3:
            return atoms()
        maker = rng.choice([Not, And, Or, Implies])
        if maker is Not:
            return Not(formula(depth - 1))
        return maker(formula(depth - 1), formula(depth - 1))
    return formula(3)


def random_theta(rng, poset):
    """A formula in the one free variable x over gamma, check-names of
    naturals and check-names of conditions; half of them have the shape
    "x = j-check and psi_j" for a few j, with psi_j about the generic
    filter, so that the least ordinal satisfying them varies by filter."""
    k = poset.kernel()
    gamma = Cname(gamma_name(poset))
    in_gamma = [Member(Cname(check_name(poset.condition_hf(c))), gamma)
                for c in k.conds]
    checks = [Cname(check_name(nat(j))) for j in range(4)] + \
        [atom.left for atom in in_gamma]
    x = Var("x")
    if rng.random() < 0.5:
        return disj([
            And(Eq(x, checks[j]),
                random_formula(rng, poset, lambda: rng.choice(in_gamma)))
            for j in range(rng.randint(1, 4))])

    def atom():
        c = rng.choice(checks)
        return rng.choice([Eq(x, c), Member(x, c), Member(x, gamma),
                           Member(c, gamma)])

    while True:
        theta = random_formula(rng, poset, atom)
        if theta.free == {"x"}:
            return theta


class TestConstructionsAgainstReference:
    """The witness constructions read [[theta]] masks; these ask the public
    forcing relation per condition instead, as the constructions' defining
    clauses say, and must give the same names and the same errors."""

    @pytest.mark.parametrize("case", sorted(QUOTIENT_CASES))
    def test_least_ordinal_name(self, case):
        poset = QUOTIENT_CASES[case][0]()
        rng = random.Random(f"least-{case}")
        conds = list(poset.kernel().conds)
        answered = raised = 0
        for _ in range(40):
            theta = random_theta(rng, poset)
            p = rng.choice(conds)
            for kappa in range(1, 5):
                got = outcome(
                    lambda: least_ordinal_name(poset, p, kappa, theta))
                want = outcome(lambda: reference_least_ordinal_name(
                    poset, p, kappa, theta))
                assert got == want, (theta, p, kappa)
                answered += isinstance(got, PName)
                raised += not isinstance(got, PName)
        assert answered and raised


class TestTruncationEscape:
    """Forcing at a condition outside the truncation has no exact answer:
    every entry point raises instead of deciding the truncated poset."""

    ZERO = Cname(check_name(nat(0)))
    FALSE = Member(ZERO, ZERO)

    @pytest.fixture(params=["fn", "tree"])
    def outside(self, request):
        if request.param == "fn":
            return fn_omega_omega(2, 2), frozenset({(5, 0)})
        return BinaryTreePoset(2), "0101"

    def test_routes_raise(self, outside):
        poset, p = outside
        with pytest.raises(TruncationEscape):
            forces_semantic(poset, p, self.FALSE)
        with pytest.raises(TruncationEscape):
            forces_syntactic(poset, p, self.FALSE)

    def test_constructions_raise(self, outside):
        poset, p = outside
        theta = Eq(Var("x"), self.ZERO)
        with pytest.raises(TruncationEscape):
            mix(poset, p, [p], {p: EMPTY_NAME})
        with pytest.raises(TruncationEscape):
            least_ordinal_name(poset, p, 1, theta)
        with pytest.raises(TruncationEscape):
            mp_witness_search(poset, p, theta, NameSpace(poset, (), 0))

    def test_mix_member_outside_raises(self):
        tree = BinaryTreePoset(2)
        with pytest.raises(TruncationEscape):
            mix(tree, ONE, ["0", "1", "0101"],
                {c: EMPTY_NAME for c in ("0", "1", "0101")})


class TestCacheScope:
    def test_forcing_state_dies_with_its_poset(self):
        poset = FlatPoset(FAM)
        gamma = gamma_name(poset)
        phi = Member(Cname(check_name(poset.condition_hf("a"))), Cname(gamma))
        assert forces_semantic(poset, "a", phi)
        assert forces_syntactic(poset, "a", phi)
        filt = generic_filter(poset, "a")
        assert eval_name(gamma, filt) == HF([poset.condition_hf("a"),
                                             poset.condition_hf("1")])
        ref = weakref.ref(poset)
        del poset, filt
        gc.collect()
        assert ref() is None


class TestRouteState:
    """Route state hangs off its name space, or off the kernel for no
    space, and quantifier instances are decided under an environment."""

    @staticmethod
    def tree_and_fn_space():
        tree = BinaryTreePoset(2)
        phi = Exists("x", RankLE(1), Member(Var("x"), Cname(gamma_name(tree))))
        return tree, phi, NameSpace(fn_omega_omega(2, 2), (EMPTY_NAME,), 1)

    @pytest.mark.parametrize("ask", [
        lambda tree, phi, space: forces_semantic(tree, ONE, phi, space),
        lambda tree, phi, space: forces_syntactic(tree, ONE, phi, space),
        lambda tree, phi, space: mp_witness_search(
            tree, ONE, phi.body, space),
    ], ids=["forces_semantic", "forces_syntactic", "mp_witness_search"])
    def test_space_over_another_poset_refused(self, ask):
        tree, phi, space = self.tree_and_fn_space()
        with pytest.raises(InvalidInput) as info:
            ask(tree, phi, space)
        assert info.value.code == "invalid-input"
        assert space.forcer is None

    def test_dropped_spaces_and_their_forcers_are_freed(self):
        poset = FlatPoset(FAM)
        gamma = Cname(gamma_name(poset))
        phi = Exists("x", RankLE(1), Member(Var("x"), gamma))
        assert forces_semantic(poset, ONE, Forall("x", InName(gamma.name),
                                                  Member(Var("x"), gamma)))
        spaceless = poset.kernel().forcer
        refs = []
        for _ in range(1000):
            space = NameSpace(poset, (EMPTY_NAME,), 1)
            assert forces_syntactic(poset, ONE, phi, space)
            refs += [weakref.ref(space), weakref.ref(space.forcer)]
        del space
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert poset.kernel().forcer is spaceless
        assert not hasattr(poset.kernel(), "forcers")

    def test_queried_spaces_freed_without_the_collector(self):
        # A space holds its forcer and the forcer holds the space weakly,
        # so reference counting alone frees both once the space is dropped.
        tree = BinaryTreePoset(2)
        phi = Exists("x", RankLE(1),
                     Member(Var("x"), Cname(gamma_name(tree))))
        refs = []
        gc.disable()
        try:
            for _ in range(10):
                space = NameSpace(tree, BASES, 1)
                assert forces_semantic(tree, ONE, phi, space)
                refs += [weakref.ref(space), weakref.ref(space.forcer)]
                del space
            assert [ref() for ref in refs] == [None] * 20
        finally:
            gc.enable()

    def test_ordinal_ranges_stop_where_their_quantifier_stops(self):
        # 0-check is the first ordinal and settles the quantifier, so
        # neither route builds the naturals below a million, which would
        # not finish.
        poset = FlatPoset(FAM)
        phi = Exists("x", OrdLT(10**6),
                     Eq(Var("x"), Cname(check_name(nat(0)))))
        start = time.perf_counter()
        for c in poset.conditions():
            assert forces_semantic(poset, c, phi)
            assert forces_syntactic(poset, c, phi)
        assert time.perf_counter() - start < 0.5

    def test_no_instance_is_built_by_substitution(self, monkeypatch):
        """With subst refusing every call, the routes and the witness
        constructions answer as the substituted instances do."""
        def build():
            poset = FlatPoset(FAM)
            gamma = gamma_name(poset)
            x, y = Var("x"), Var("y")
            in_gamma = Member(x, Cname(gamma))
            formulas = [q("x", bound, body) for q in (Exists, Forall)
                        for bound in (InName(gamma), OrdLT(3), RankLE(1))
                        for body in (in_gamma, Not(in_gamma), Eq(x, A_CHECK))]
            b_check = Cname(check_name(poset.condition_hf("b")))
            formulas.append(Exists("x", InName(gamma), Forall(
                "y", OrdLT(3), Or(Member(y, x), Not(Member(y, b_check))))))
            theta = Or(And(Eq(x, Cname(check_name(nat(1)))), Member(
                A_CHECK, Cname(gamma))), Not(Member(A_CHECK, Cname(gamma))))
            return poset, NameSpace(poset, (gamma,), 1), formulas, theta

        poset, space, formulas, theta = build()
        k = poset.kernel()
        want_routes = [
            [all(reference_sat(phi, filter_at(k, a), space)
                 for a in k.minimals if k.down[i] >> a & 1)
             for i in range(len(k.conds))] for phi in formulas]
        want_witness = next(
            tau for tau in space.universe
            if forces_semantic(poset, "a", subst(theta, "x", tau), space))
        want_least = reference_least_ordinal_name(poset, ONE, 3, theta)

        def refuse(*args):
            raise AssertionError("a quantifier instance was substituted")

        monkeypatch.setattr(formulas_module, "subst", refuse)
        monkeypatch.setattr(forcing_module, "subst", refuse)
        poset, space, formulas, theta = build()
        for phi, want in zip(formulas, want_routes):
            for c, forced in zip(poset.conditions(), want):
                assert forces_semantic(poset, c, phi, space) is forced, \
                    (phi, c)
                assert forces_syntactic(poset, c, phi, space) is forced, \
                    (phi, c)
        assert mp_witness_search(poset, "a", theta, space) is want_witness
        assert least_ordinal_name(poset, ONE, 3, theta) is want_least

    def test_no_name_is_evaluated_along_a_filter(self, monkeypatch):
        """With filters and eval_name refusing every call, the routes, the
        name space, the constructions and the CLI reports answer as before:
        they read names' values off class masks and the kernel's entry
        masks."""
        def build():
            poset = FlatPoset(FAM)
            gamma = gamma_name(poset)
            x = Var("x")
            theta = Or(Member(x, Cname(gamma)), Eq(x, A_CHECK))
            formulas = [Or(Member(A_CHECK, Cname(gamma)),
                           Not(Member(B_CHECK, Cname(gamma))))]
            formulas += [q("x", bound, theta) for q in (Exists, Forall)
                         for bound in (InName(gamma), OrdLT(3), RankLE(1))]
            return poset, NameSpace(poset, (gamma,), 1), formulas, theta

        def answers():
            poset, space, formulas, theta = build()
            mixed = mix(poset, ONE, ["a", "b"],
                        {"a": CHECKS[1], "b": gamma_name(poset)})
            return ([[(forces_semantic(poset, c, phi, space),
                       forces_syntactic(poset, c, phi, space))
                      for c in poset.conditions()] for phi in formulas],
                    space.universe, mixed,
                    mp_witness_search(poset, ONE, theta, space),
                    least_ordinal_name(poset, ONE, 3, theta))

        want = answers()
        reports = ("forces_explicit", "forces_flat", "witness_flat",
                   "mix_flat", "leastord_flat")

        def refuse(*args):
            raise AssertionError("a name was evaluated along a filter")

        monkeypatch.setattr(Filter, "__contains__", refuse)
        monkeypatch.setattr(forcing_module, "eval_name", refuse)
        monkeypatch.setattr(cli, "eval_name", refuse)
        assert answers() == want
        for stem in reports:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = cli.main([stem.split("_")[0],
                                   str(ROOT / "scenarios" / f"{stem}.fl")])
            assert status == 0, stem
            assert buf.getvalue() == \
                (ROOT / "tests" / "golden" / f"{stem}.json").read_text()

    def test_subformula_without_the_variable_computed_once(self, monkeypatch):
        calls = {}

        def counting(method):
            def wrapper(self, phi, env):
                calls[method.__name__, phi] = \
                    calls.get((method.__name__, phi), 0) + 1
                return method(self, phi, env)
            return wrapper

        for method in (_Forcer._truth_of, _Forcer._forcing_of):
            monkeypatch.setattr(_Forcer, method.__name__, counting(method))
        poset = BinaryTreePoset(2)
        gamma = Cname(gamma_name(poset))
        x, y = Var("x"), Var("y")
        closed = Not(Member(Cname(check_name(nat(1))), gamma))
        x_only = Not(Member(x, gamma))
        both = Or(Member(y, x), Eq(x, y))
        phi = Forall("x", InName(gamma.name), Exists(
            "y", OrdLT(3), Or(And(x_only, closed), both)))
        forces_semantic(poset, ONE, phi)
        forces_syntactic(poset, ONE, phi)
        xs = len({sig for _, sig in poset.kernel().entry_masks(gamma.name)})
        assert xs > 1
        for route in ("_truth_of", "_forcing_of"):
            assert calls[route, closed] == 1
            assert 1 < calls[route, x_only] <= xs
            assert calls[route, both] > calls[route, x_only]


def hf_of_rank_le(r):
    """Every HF set of rank at most r: 1, 2, 4 and 16 of them for r <= 3."""
    level = [HF()]
    for _ in range(r):
        level = [HF(c) for size in range(len(level) + 1)
                 for c in itertools.combinations(level, size)]
    return level


CHECKS = [check_name(x) for x in hf_of_rank_le(3)]


def reference_eval(tau, filt):
    """A name's value along a filter by the defining recursion alone."""
    return HF(reference_eval(child, filt)
              for cond, child in tau.entries if cond in filt)


class KunenClauses:
    """p forces t1 = t2 or t1 in t2 by Kunen's recursive clauses (Set
    Theory, 1980, VII 3.3), with density below p decided by brute force over
    the truncation.  Shares nothing with the library's routes but the order.
    """

    def __init__(self, poset):
        self.poset = poset
        self.memo = {}

    def below(self, q, s):
        return s is ONE or self.poset.le(q, s)

    def dense_below(self, p, holds):
        good = {q for q in extensions(self.poset, p) if holds(q)}
        return all(any(q in good for q in extensions(self.poset, r))
                   for r in extensions(self.poset, p))

    def forces(self, kind, p, t1, t2):
        key = (kind, p, t1, t2)
        if key not in self.memo:
            self.memo[key] = self._forces(kind, p, t1, t2)
        return self.memo[key]

    def _forces(self, kind, p, t1, t2):
        if kind is Member:
            return self.dense_below(p, lambda q: any(
                self.below(q, s) and self.forces(Eq, q, pi, t1)
                for s, pi in t2.entries))
        return all(
            self.dense_below(p, lambda q: not self.below(q, s1) or any(
                self.below(q, s2) and self.forces(Eq, q, pi1, pi2)
                for s2, pi2 in b.entries))
            for a, b in ((t1, t2), (t2, t1)) for s1, pi1 in a.entries)


class TestCheckNames:
    """Check-names carry their value, and both routes decide atoms between
    two check-names without recursion.  ``Kernel.value``, which name
    spaces read to build their class masks and the semantic route reads
    for every name no space assembled, is every name's value along each
    filter."""

    @staticmethod
    def hereditarily_one(tau):
        return all(cond is ONE for n in hereditary_closure([tau])
                   for cond, _ in n.entries)

    @staticmethod
    def names(poset, rank):
        """A space's names, the filter name, pair names and check-names."""
        gamma = gamma_name(poset)
        space = NameSpace(poset, BASES, rank)
        some = [gamma, EMPTY_NAME, CHECKS[5], space.universe[-1]]
        pairs = [f(a, b) for f in (unordered_pair_name, ordered_pair_name)
                 for a in some for b in some]
        return set(space.universe) | set(pairs) | set(CHECKS) | {gamma}

    @pytest.mark.parametrize("case", sorted(QUOTIENT_CASES))
    def test_kernel_value_is_the_value_along_each_filter(self, case):
        make, rank = QUOTIENT_CASES[case]
        poset = make()
        k = poset.kernel()
        for tau in self.names(poset, rank):
            for i in range(len(k.conds)):
                assert k.value(tau, i) is eval_name(tau, filter_at(k, i)), \
                    (tau, i)

    @pytest.mark.parametrize("case", sorted(QUOTIENT_CASES))
    def test_value_is_set_exactly_on_check_names(self, case):
        make, rank = QUOTIENT_CASES[case]
        poset = make()
        k = poset.kernel()
        names = self.names(poset, rank)
        assert sum(tau.value is not None for tau in names) > len(CHECKS)
        for tau in names:
            assert (tau.value is not None) == self.hereditarily_one(tau), tau
            for i in range(len(k.conds)):
                filt = filter_at(k, i)
                want = reference_eval(tau, filt)
                assert tau.value in (None, want), (tau, i)
                assert eval_name(tau, filt) is want, (tau, i)

    def test_check_name_values(self):
        for x in hf_of_rank_le(3):
            assert check_name(x).value is x
        assert EMPTY_NAME.value is HF()

    @pytest.mark.parametrize("make", [
        lambda: FlatPoset(FAM), lambda: BinaryTreePoset(2),
        lambda: ChoicePoset(FAM, 2)], ids=["flat", "tree2", "choice"])
    def test_atoms_follow_kunens_clauses(self, make):
        poset = make()
        kunen = KunenClauses(poset)
        for t1, t2 in itertools.product(CHECKS, repeat=2):
            for kind, lemma in ((Eq, t1.value is t2.value),
                                (Member, t1.value in t2.value)):
                phi = kind(Cname(t1), Cname(t2))
                for p in poset.conditions():
                    want = kunen.forces(kind, p, t1, t2)
                    assert want == lemma, (phi, p)
                    assert forces_syntactic(poset, p, phi) == want, (phi, p)
                    assert forces_semantic(poset, p, phi) == want, (phi, p)

    def test_check_name_atoms_add_no_memo_entry(self):
        poset = FlatPoset(FAM)
        f = _Forcer(poset.kernel(), None)
        for kind in (Eq, Member):
            for t1, t2 in itertools.product(CHECKS, repeat=2):
                f.atom(kind, t1, t2)
        assert f._forcing == {}
        gamma = gamma_name(poset)
        a = check_name(poset.condition_hf("a"))
        assert f.atom(Member, a, gamma) == poset.kernel().down[
            poset.index_of("a")]
        assert list(f._forcing) == [(Member, a, gamma)]


# Both routes and both kinds of reader (an atom's value, an InName range)
# over a name whose four entry conditions ``resolve`` refuses, printed with
# the order in which the name's entry set iterates.
REFUSED_ENTRIES = """
import json
from forcelab import (EMPTY_NAME, Cname, Eq, Exists, ExplicitPoset,
                      ForceLabError, InName, Member, PName, Var,
                      forces_semantic, forces_syntactic)
tau = PName([(c, EMPTY_NAME) for c in ("z", "y", "x", "w")])
out = {"order": [c for c, _ in tau.entries], "refusals": []}
for route in (forces_semantic, forces_syntactic):
    for phi in (Member(Cname(EMPTY_NAME), Cname(tau)),
                Exists("v", InName(tau), Eq(Var("v"), Var("v")))):
        poset = ExplicitPoset(["a", "1"], [("a", "1")], "1")
        try:
            route(poset, "a", phi)
        except ForceLabError as e:
            out["refusals"].append([e.code, str(e)])
print(json.dumps(out))
"""


def fresh_runs(script: str, seeds=range(6)) -> list:
    """The JSON that script prints, from a fresh interpreter under each
    of the hash seeds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    outs = []
    for seed in seeds:
        env["PYTHONHASHSEED"] = str(seed)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              cwd=ROOT, check=True)
        outs.append(json.loads(proc.stdout))
    return outs


def test_a_refused_entry_is_named_canonically_first_under_any_hash_seed():
    orders = []
    for out in fresh_runs(REFUSED_ENTRIES):
        orders.append(out["order"])
        assert out["refusals"] == [[
            "unknown-condition",
            "not a condition of this explicit poset: 'w'"]] * 4
    # The entry sets iterate in some other order under at least one seed,
    # so the refusal does not name the first entry it meets.
    assert any(order != ["w", "x", "y", "z"] for order in orders)


# A name whose first entry, in canonical order, holds the empty name, and
# whose other entries hold names with a condition ``resolve`` refuses: a
# reader that stops at its first instance never meets a refused condition
# when it reads the entries in canonical order.  The script prints each
# route's answer to both formulas and where the empty name falls in the
# name's entry set, whose order follows the children's id-based hashes.
NESTED_REFUSALS = """
import json
from forcelab import (EMPTY_NAME, ONE, Cname, Eq, Exists, ExplicitPoset,
                      ForceLabError, InName, Member, PName, Var,
                      forces_semantic, forces_syntactic)
tau = PName([(ONE, EMPTY_NAME)]
            + [(ONE, PName([(c, EMPTY_NAME)])) for c in "stuvwxyz"])
out = {"empty_at": [child for _, child in tau.entries].index(EMPTY_NAME),
       "answers": []}
for route in (forces_semantic, forces_syntactic):
    for phi in (Exists("v", InName(tau), Eq(Var("v"), Cname(EMPTY_NAME))),
                Member(Cname(EMPTY_NAME), Cname(tau))):
        poset = ExplicitPoset(["a", "1"], [("a", "1")], "1")
        try:
            out["answers"].append(route(poset, "a", phi))
        except ForceLabError as e:
            out["answers"].append([e.code, str(e)])
print(json.dumps(out))
"""


def test_an_early_stopping_reader_answers_alike_in_every_process():
    outs = fresh_runs(NESTED_REFUSALS)
    refused = ["unknown-condition",
               "not a condition of this explicit poset: 's'"]
    # The semantic atom reads every child's value; the other readers stop
    # at the empty name, the canonically first entry.
    assert [out["answers"] for out in outs] == \
        [[True, refused, True, True]] * len(outs)
    assert any(out["empty_at"] != 0 for out in outs)


def test_a_question_over_gamma_repeats_no_recursion(monkeypatch):
    poset = fn_omega_omega(2, 2)
    gamma = gamma_name(poset)
    phi = Forall("x", InName(gamma),
                 Exists("y", OrdLT(2), Or(Member(Var("y"), Var("x")),
                                          Eq(Var("x"), Cname(gamma)))))
    calls = Counter()

    def counting(cls, attr):
        fn = getattr(cls, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(cls, attr, wrapper)

    counting(_Forcer, "_truth_of")
    counting(_Forcer, "_forcing_of")
    for route, recursion in ((forces_semantic, "_truth_of"),
                             (forces_syntactic, "_forcing_of")):
        first, *rest = poset.conditions()
        answers = [route(poset, first, phi)]
        assert calls[recursion] > 0
        calls[recursion] = 0
        answers += [route(poset, c, phi) for c in rest]
        assert calls[recursion] == 0
        assert answers == [route(poset, c, phi) for c in poset.conditions()]
