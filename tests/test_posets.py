"""Partial orders of conditions: orders, compatibility, antichains, filters."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from forcelab import (
    HF, BinaryTreePoset, ChoicePoset, CohenGridPoset, ExplicitPoset, Family,
    Filter, FlatPoset, InjPoset, InvalidInput, MapPoset, ONE,
    TruncationEscape,
    UnknownCondition, enumerate_maximal_antichains,
    fn_omega_omega, generic_filter, inj_omega_omega, is_dense,
    is_maximal_antichain, nat,
)
from forcelab.posets import canon_key

FAM21 = Family([("a", [nat(0), nat(1)]), ("b", [nat(2)])])
FAM1 = Family([("a", [nat(0)])])
FAM22 = Family([("a", [nat(0), nat(1)]), ("b", [nat(2), nat(3)])])


def explicit_v():
    return ExplicitPoset(["a", "b", "1"], [("a", "1"), ("b", "1")], "1")


@pytest.mark.parametrize("make", [
    lambda: ExplicitPoset(["a", "1"], [("a",)]),
    lambda: ExplicitPoset(["a", "1"], 5),
    lambda: ExplicitPoset([["x"], "1"], []),
    lambda: ExplicitPoset(5, []),
    lambda: ExplicitPoset(["a", "1"], [(["a"], "1")]),
    lambda: ExplicitPoset(["a", "1"], [], ["1"]),
    lambda: Family([("a", [[1]])]),
    lambda: Family(5),
    lambda: Family([("a",)]),
    lambda: Family([(["a"], [nat(0)])]),
    lambda: MapPoset(dom_items=5),
    lambda: MapPoset(dom_window=5, cod_window=(0,)),
], ids=["short-pair", "int-order", "list-element", "int-elements",
        "list-in-pair", "list-top", "list-member", "int-family",
        "short-block", "list-label", "int-items", "int-window"])
def test_malformed_poset_input_is_invalid_input(make):
    # Each would escape as a bare TypeError or ValueError unchecked.
    with pytest.raises(InvalidInput):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: Family([("1", [nat(0)])]), "reserved"),
    (lambda: Family([("a", [])]), "'a' is empty"),
    (lambda: Family([("a", [nat(0)]), ("a", [nat(1)])]),
     "duplicate block labels"),
    (lambda: Family([("a", [nat(0)]), ("b", [nat(1), nat(0)])]),
     "'a' and 'b' overlap"),
    (lambda: ExplicitPoset(["a", "a", "1"], [("a", "1")], "1"),
     "duplicate elements"),
], ids=["one-label", "empty-block", "duplicate-labels", "overlap",
        "duplicate-elements"])
def test_well_formed_but_invalid_posets_are_refused(make, message):
    with pytest.raises(InvalidInput, match=message) as info:
        make()
    assert info.value.code == "invalid-input"


class TestExplicitPoset:
    def test_order_is_transitive_closure(self):
        p = ExplicitPoset(["a", "b", "c"], [("a", "b"), ("b", "c")], "c")
        assert p.le("a", "c")
        assert not p.le("c", "a")

    def test_top_is_inferred(self):
        p = ExplicitPoset(["a", "b", "1"], [("a", "1"), ("b", "1")])
        assert p.top == "1"

    def test_missing_top_rejected(self):
        with pytest.raises(InvalidInput):
            ExplicitPoset(["a", "b"], [])

    def test_declared_top_must_dominate(self):
        with pytest.raises(InvalidInput):
            ExplicitPoset(["a", "b", "c"], [("a", "c")], "c")

    def test_antisymmetry_enforced(self):
        with pytest.raises(InvalidInput):
            ExplicitPoset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_one_is_reserved_for_the_top(self):
        # The scenario literal 1 always means ONE, and reports print both
        # as "1", so an element "1" below the top would be ambiguous.
        with pytest.raises(InvalidInput, match="reserved"):
            ExplicitPoset(["t", "1", "b"], [("1", "t"), ("b", "t")], "t")
        assert ExplicitPoset(["a", "1"], [("a", "1")], "1").top == "1"

    def test_one_resolves_to_top(self):
        p = explicit_v()
        assert p.resolve(ONE) == "1"
        assert p.le("a", p.resolve(ONE))

    def test_compatible_iff_common_extension(self):
        p = explicit_v()
        assert not p.compatible("a", "b")
        assert p.compatible("a", ONE)

    def test_unknown_condition(self):
        with pytest.raises(UnknownCondition):
            explicit_v().resolve("z")

    def test_minimal_conditions(self):
        assert set(explicit_v().minimal_conditions()) == {"a", "b"}

    @given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
    def test_order_laws_on_diamond(self, i, j, k):
        p = ExplicitPoset(
            ["x", "y", "z", "1"],
            [("x", "y"), ("x", "z"), ("y", "1"), ("z", "1")], "1")
        c = p.conditions()
        a, b, d = c[i], c[j], c[k]
        assert p.le(a, a)
        if p.le(a, b) and p.le(b, a):
            assert a == b
        if p.le(a, b) and p.le(b, d):
            assert p.le(a, d)


class TestFlatPoset:
    def test_conditions_are_labels_plus_top(self):
        flat = FlatPoset(FAM21)
        assert set(flat.conditions()) == {"a", "b", flat.top}

    def test_labels_pairwise_incompatible(self):
        flat = FlatPoset(FAM21)
        assert not flat.compatible("a", "b")
        assert is_maximal_antichain(flat, ["a", "b"])
        assert not is_maximal_antichain(flat, ["a"])

    def test_generic_filter_at_label(self):
        flat = FlatPoset(FAM21)
        g = generic_filter(flat, "a")
        assert "a" in g and flat.top in g and "b" not in g
        assert g.is_filter()

    def test_family_and_filter_reprs_are_canonical(self):
        fam = Family([("b", [HF([nat(1)]), nat(2)]), ("a", [nat(1), nat(0)])])
        assert repr(fam) == "Family(b: {{1},2}, a: {0,1})"
        assert repr(Filter(FlatPoset(FAM21), ["1", "b"])) == "Filter(b,1)"


class TestChoicePoset:
    def test_compatibility_is_same_block(self):
        cp = ChoicePoset(FAM21, 2)
        assert cp.compatible((0, nat(0)), (1, nat(1)))
        assert not cp.compatible((0, nat(0)), (0, nat(2)))

    def test_topless(self):
        cp = ChoicePoset(FAM21, 2)
        assert cp.top is None
        with pytest.raises(InvalidInput):
            cp.resolve(ONE)

    def test_antichain_counts(self):
        assert len(enumerate_maximal_antichains(ChoicePoset(FAM21, 2))) == 8
        assert len(enumerate_maximal_antichains(ChoicePoset(FAM1, 1))) == 1
        assert len(enumerate_maximal_antichains(ChoicePoset(FAM22, 1))) == 4

    def test_maximality_is_one_per_block(self):
        cp = ChoicePoset(FAM21, 2)
        assert is_maximal_antichain(cp, [(0, nat(0)), (1, nat(2))])
        assert not is_maximal_antichain(cp, [(0, nat(0))])
        assert not is_maximal_antichain(
            cp, [(0, nat(0)), (1, nat(0)), (0, nat(2))])

    def test_level_bound_truncation(self):
        cp = ChoicePoset(FAM21, 1)
        with pytest.raises(TruncationEscape):
            cp.index_of((3, nat(0)))

    def test_antichains_need_a_level_bound(self):
        with pytest.raises(TruncationEscape):
            enumerate_maximal_antichains(ChoicePoset(FAM21))


class TestMapPosets:
    def test_reverse_inclusion(self):
        p = fn_omega_omega(2, 2)
        small = frozenset({(0, 1)})
        big = frozenset({(0, 1), (1, 0)})
        assert p.le(big, small)
        assert not p.le(small, big)

    def test_compatible_iff_union_works(self):
        p = fn_omega_omega(2, 2)
        assert p.compatible(frozenset({(0, 1)}), frozenset({(1, 0)}))
        assert not p.compatible(frozenset({(0, 1)}), frozenset({(0, 0)}))

    def test_injective_rejects_collisions(self):
        p = inj_omega_omega(2, 2)
        assert not p.compatible(frozenset({(0, 1)}), frozenset({(1, 1)}))
        assert not p.is_condition(frozenset({(0, 1), (1, 1)}))

    def test_enumeration_counts(self):
        # partial maps 2 -> 2: 1 empty + 2*2 singletons + 4 total maps
        assert len(fn_omega_omega(2, 2).conditions()) == 9
        # injective partial maps 2 -> 2: 1 + 4 + 2
        assert len(inj_omega_omega(2, 2).conditions()) == 7

    def test_untruncated_enumeration_escapes(self):
        with pytest.raises(TruncationEscape):
            MapPoset().conditions()

    @pytest.mark.parametrize("make", [fn_omega_omega, inj_omega_omega])
    def test_negative_window_refused(self, make):
        for dom, cod in ((-1, 2), (2, -1)):
            with pytest.raises(InvalidInput):
                make(dom, cod)
        assert make(0, 0).conditions() == (frozenset(),)

    def test_window_outside_the_items_refused(self):
        # Every map in the window must be a condition, so a window item
        # must be one of the poset's items (a natural, when none are given).
        for bad in (dict(dom_items=(0, 1), cod_items=(0, 1), dom_window=(0, 5)),
                    dict(cod_items=(frozenset({0}),),
                         cod_window=(frozenset({1}),)),
                    dict(dom_window=(0, -1), cod_window=(0,)),
                    dict(dom_window=(0,), cod_window=(True,))):
            with pytest.raises(InvalidInput):
                MapPoset(**bad)
        p = MapPoset(dom_items=(0, 1), cod_items=(0, 1), dom_window=(1,))
        assert all(p.is_condition(c) for c in p.conditions())

    @pytest.mark.parametrize("make", [
        lambda: fn_omega_omega(2, 2), lambda: fn_omega_omega(3, 3),
        lambda: InjPoset(dom_items=(frozenset(), frozenset({0, 1})),
                         cod_items=(frozenset({2}), frozenset({0}),
                                    frozenset({0, 1}))),
        lambda: CohenGridPoset(2, 2), lambda: CohenGridPoset(3, 2),
    ], ids=["fn22", "fn33", "inj-sets", "grid22", "grid32"])
    def test_conditions_in_canon_key_order(self, make):
        conds = make().conditions()
        shuffled = random.Random(0).sample(conds, len(conds))
        assert conds == tuple(sorted(shuffled, key=canon_key))

    def test_item_posets(self):
        vals = (frozenset({0}), frozenset({1}))
        p = MapPoset(dom_items=range(2), cod_items=vals)
        assert p.condition_repr(frozenset({(0, frozenset({1}))})) == "{0->{1}}"

    def test_dense_sets(self):
        p = fn_omega_omega(2, 2)
        totals = [c for c in p.conditions() if len(c) == 2]
        assert is_dense(p, totals)
        assert not is_dense(p, [frozenset({(0, 0)})])


class TestGridAndTree:
    def test_grid_conditions_count(self):
        # 2x1 grid: each cell absent/0/1
        assert len(CohenGridPoset(2, 1).conditions()) == 9

    def test_grid_compatibility(self):
        g = CohenGridPoset(2, 2)
        p = frozenset({((0, 0), 1)})
        q = frozenset({((0, 0), 0)})
        r = frozenset({((1, 1), 1)})
        assert not g.compatible(p, q)
        assert g.compatible(p, r)

    def test_grid_repr(self):
        g = CohenGridPoset(2, 2)
        assert g.condition_repr(
            frozenset({((0, 1), 1), ((1, 0), 0)})) == "{(0,1)=1,(1,0)=0}"

    def test_tree_extension_is_prefix(self):
        t = BinaryTreePoset(2)
        assert t.le("01", "0")
        assert not t.le("01", "1")
        assert t.compatible("0", "01")
        assert not t.compatible("00", "01")


class TestFilters:
    def test_generic_filter_meets_dense_sets(self):
        p = explicit_v()
        g = generic_filter(p, ONE)
        dense = [c for c in p.conditions()
                 if all(not p.le(d, c) or d == c for d in p.conditions())]
        assert any(c in g for c in dense)
        assert g.is_filter()

    def test_filter_laws_detect_violations(self):
        p = explicit_v()
        assert not Filter(p, ["a"]).is_upward_closed()
        assert not Filter(p, ["a", "b", "1"]).is_directed()
        assert Filter(p, ["a", "1"]).is_filter()

    def test_the_empty_set_is_directed_but_no_filter(self):
        p = explicit_v()
        assert Filter(p, []).is_directed()
        assert not Filter(p, []).is_filter()

    def test_membership_takes_kernel_conditions_by_identity(
            self, monkeypatch):
        # The kernel's own condition object is a member without a
        # condition check, as Kernel.find takes it; an equal copy that
        # resolve refuses is still checked, and is no member.
        poset = ChoicePoset(FAM21, 2)
        k = poset.kernel()
        filt = generic_filter(poset, (1, nat(0)))
        asked = []
        is_condition = ChoicePoset.is_condition
        monkeypatch.setattr(ChoicePoset, "is_condition",
                            lambda self, c: asked.append(c)
                            or is_condition(self, c))
        own = k.conds[k.index[(1, nat(0))]]
        assert own in filt and asked == []
        copy = (1.0, nat(0))
        assert copy == own and copy not in filt and asked == [copy]

    def test_generic_filter_seed_below(self):
        flat = FlatPoset(FAM21)
        g = generic_filter(flat, ONE)
        assert len([c for c in flat.conditions() if c in g]) == 2

    def test_filters_are_equal_by_poset_and_conditions(self):
        flat = FlatPoset(FAM21)
        g, h = generic_filter(flat, "a"), generic_filter(flat, "a")
        assert g is not h and g == h and hash(g) == hash(h)
        assert {g, h} == {g} and len({g, h}) == 1
        # An equal copy of the poset is another poset, so its filter over
        # the same conditions is another filter.
        other = FlatPoset(FAM21)
        assert other is not flat
        assert generic_filter(other, "a") != g
        assert generic_filter(flat, "b") != g
        assert g != g.conditions and len({g, generic_filter(flat, "b")}) == 2


KERNEL_POSETS = {
    "explicit": lambda: ExplicitPoset(
        ["a", "b", "c", "d", "1"],
        [("a", "b"), ("a", "c"), ("b", "1"), ("c", "1"), ("d", "1")], "1"),
    "flat": lambda: FlatPoset(FAM21),
    "choice": lambda: ChoicePoset(FAM21, level_bound=2),
    "fn": lambda: fn_omega_omega(2, 2),
    "inj": lambda: inj_omega_omega(2, 2),
    "cohen": lambda: CohenGridPoset(2, 1),
    "tree": lambda: BinaryTreePoset(2),
}


class TestKernel:
    """The compiled kernel against brute force over the validating public
    ``le`` and ``compatible``, on every pair of conditions."""

    @pytest.mark.parametrize("kind", sorted(KERNEL_POSETS))
    def test_kernel_matches_public_order(self, kind):
        poset = KERNEL_POSETS[kind]()
        k = poset.kernel()
        conds = poset.conditions()
        assert k.conds == conds
        for i, p in enumerate(conds):
            assert k.index[p] == i
            for j, q in enumerate(conds):
                assert bool(k.down[i] >> j & 1) == poset.le(q, p)
                assert bool(k.compat[i] >> j & 1) == poset.compatible(p, q)
        minimal = [i for i, p in enumerate(conds)
                   if all(not poset.le(q, p) or q == p for q in conds)]
        assert k.minimal == sum(1 << i for i in minimal)
        assert k.minimals == tuple(minimal)
        if poset.top is None:
            assert k.top is None
        else:
            assert conds[k.top] == poset.top

    @pytest.mark.parametrize("kind", ["explicit", "flat", "tree", "fn", "inj"])
    def test_none_below_laws_on_seeded_masks(self, kind):
        # On down-closed masks (every forcing set is one) none_below is the
        # pseudo-complement, so none_below(Y) is regular open and the →
        # clause may take none_below(A & ~B) for none_below(A & none_below(B)).
        # An arbitrary mask does not qualify: the top alone is not down-closed.
        k = KERNEL_POSETS[kind]().kernel()
        nb = k.none_below
        rng = random.Random(1201)

        def seeded_open():
            bits = rng.getrandbits(len(k.conds))
            out = 0
            for i, d in enumerate(k.down):
                if bits >> i & 1:
                    out |= d
            return out

        for _ in range(50):
            x, y = seeded_open(), seeded_open()
            assert nb(nb(nb(x))) == nb(x)
            a, b = nb(x), nb(y)
            assert nb(nb(b)) == b
            assert nb(a & ~b) == nb(a & nb(b))

    def test_kernel_is_compiled_once(self):
        poset = BinaryTreePoset(2)
        assert poset.kernel() is poset.kernel()

    def test_index_of_validates(self):
        tree = BinaryTreePoset(2)
        assert tree.index_of(ONE) == tree.kernel().top
        with pytest.raises(UnknownCondition):
            tree.index_of("012")
        with pytest.raises(TruncationEscape):
            tree.index_of("0101")


def _subsets(conds, size=3):
    for k in range(size + 1):
        yield from itertools.combinations(conds, k)


class TestPredicatesOnKernel:
    """Antichain, density and filter laws against brute force
    over the validating public ``le`` and ``compatible``."""

    @pytest.mark.parametrize("kind", sorted(KERNEL_POSETS))
    def test_predicates_match_brute_force(self, kind):
        poset = KERNEL_POSETS[kind]()
        conds = poset.conditions()
        le, comp = poset.le, poset.compatible
        for sub in _subsets(conds):
            items = list(sub)
            anti = all(not comp(p, q) for p, q in
                       itertools.combinations(items, 2))
            assert is_maximal_antichain(poset, items) == (
                anti and all(any(comp(c, a) for a in items) for c in conds))
            for dense in (items, items + items[:1]):
                assert is_dense(poset, dense) == all(
                    any(le(d, p) for d in dense) for p in conds)
                assert Filter(poset, dense).is_filter() == (
                    bool(items)
                    and all(q in items for p in items for q in conds
                            if le(p, q))
                    and all(any(le(r, p) and le(r, q) for r in items)
                            for p in items for q in items))

    @pytest.mark.parametrize("kind", sorted(KERNEL_POSETS))
    def test_repeated_member_keeps_a_dense_set_dense(self, kind):
        poset = KERNEL_POSETS[kind]()
        minimals = list(poset.minimal_conditions())
        assert is_dense(poset, minimals + minimals[:1])
        assert not is_maximal_antichain(poset, minimals + minimals[:1])

    @pytest.mark.parametrize("poset, outside", [
        (BinaryTreePoset(2), "000"),
        (fn_omega_omega(2, 2), frozenset({(5, 0)})),
    ], ids=["tree", "fn"])
    def test_outside_the_truncation_raises(self, poset, outside):
        top = poset.resolve(ONE)
        with pytest.raises(TruncationEscape):
            is_dense(poset, [outside])
        with pytest.raises(TruncationEscape):
            is_maximal_antichain(poset, [outside])
        for check in ("is_filter", "is_upward_closed", "is_directed"):
            with pytest.raises(TruncationEscape):
                getattr(Filter(poset, [top, outside]), check)()


# One input per row, each with the whole message it is refused with; where
# an input has two faults of one kind, the message names the first.
REFUSALS = {
    "two-overlapping-pairs": (
        lambda: Family([("a", [nat(0)]), ("b", [nat(1)]), ("c", [nat(1)]),
                        ("d", [nat(0)])]),
        "blocks 'a' and 'd' overlap"),
    "two-overlapping-pairs-outer-first": (
        lambda: Family([("d", [nat(5)]), ("c", [nat(1), nat(2)]),
                        ("b", [nat(2)]), ("a", [nat(5)])]),
        "blocks 'd' and 'a' overlap"),
    "two-loops": (
        lambda: ExplicitPoset(["c", "d", "a", "b", "1"],
                              [("a", "b"), ("b", "a"), ("c", "d"),
                               ("d", "c")]),
        "order is not antisymmetric: c, d"),
    "two-loops-interleaved": (
        lambda: ExplicitPoset(["x", "a", "b", "y", "1"],
                              [("a", "y"), ("y", "a"), ("x", "b"),
                               ("b", "x")]),
        "order is not antisymmetric: x, b"),
    "two-loops-nested": (
        lambda: ExplicitPoset(["x", "a", "b", "y", "1"],
                              [("a", "b"), ("b", "a"), ("x", "y"),
                               ("y", "x")]),
        "order is not antisymmetric: x, y"),
    "duplicate-element": (
        lambda: ExplicitPoset(["a", "b", "a", "1"], []),
        "duplicate elements in explicit poset"),
    "unknown-top": (
        lambda: ExplicitPoset(["a", "1"], [("a", "1")], "z"),
        "unknown top element 'z'"),
    "flat-label-not-str": (
        lambda: FlatPoset(Family([(1, [nat(0)])])),
        "FlatPoset takes a block label as str, not 1"),
}


@pytest.mark.parametrize("make, message", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_refusal_table(make, message):
    with pytest.raises(InvalidInput) as info:
        make()
    assert info.value.code == "invalid-input"
    assert str(info.value) == message
