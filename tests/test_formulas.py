"""Formula syntax: free variables, substitution, constants."""

import copy
import pickle
import random

import pytest

from forcelab import (
    EMPTY_NAME, HF, ONE, And, Cname, Eq, Exists, Family, FlatPoset, Forall,
    Implies, InName, InvalidInput, Member, Not, Or, OrdLT, PName, RankLE, Var,
    check_name, constants, disj, forces_semantic, forces_syntactic, nat,
    single_free_var, subst, theta_family,
)
from forcelab.formulas import MAX_NESTING, _Formula, max_rank_bound

from test_forcing import nots

C1 = check_name(nat(1))
C2 = check_name(nat(2))
C3 = check_name(nat(3))
C4 = check_name(nat(4))


class TestFreeVars:
    def test_atoms(self):
        assert Member(Var("x"), Cname(C1)).free == {"x"}
        assert Eq(Cname(C1), Cname(C2)).free == frozenset()

    def test_quantifier_binds(self):
        phi = Exists("x", RankLE(1), Member(Var("x"), Var("y")))
        assert phi.free == {"y"}
        assert And(phi, Member(Var("z"), Var("a"))).order == ("a", "y", "z")
        assert not Forall("y", OrdLT(2), phi).free

    def test_single_free_var(self):
        assert single_free_var(Member(Var("x"), Cname(C1))) == "x"
        with pytest.raises(InvalidInput):
            single_free_var(Eq(Cname(C1), Cname(C1)))
        with pytest.raises(InvalidInput):
            single_free_var(Member(Var("x"), Var("y")))


class TestSubst:
    def test_replaces_free_occurrences(self):
        phi = And(Member(Var("x"), Cname(C1)), Eq(Var("x"), Cname(C2)))
        out = subst(phi, "x", C2)
        assert out == And(Member(Cname(C2), Cname(C1)),
                          Eq(Cname(C2), Cname(C2)))

    def test_shielded_by_same_variable_quantifier(self):
        phi = Exists("x", RankLE(1), Member(Var("x"), Cname(C1)))
        assert subst(phi, "x", C2) == phi

    def test_descends_through_other_quantifiers(self):
        phi = Forall("y", InName(C1), Member(Var("y"), Var("x")))
        out = subst(phi, "x", C2)
        assert out == Forall("y", InName(C1), Member(Var("y"), Cname(C2)))

    def test_shadowing_inner_quantifier_keeps_its_variable(self):
        inner = Forall("y", OrdLT(2), Eq(Var("y"), Var("x")))
        phi = Exists("x", RankLE(1), And(Member(Var("x"), Var("y")), inner))
        assert subst(phi, "y", C2) == Exists(
            "x", RankLE(1), And(Member(Var("x"), Cname(C2)), inner))
        assert subst(phi, "x", C2) is phi

    def test_nested_quantifiers(self):
        def phi(w):
            return Forall("y", InName(C1), Exists("z", OrdLT(2), Or(
                Member(Var("z"), w), Not(Eq(Var("y"), w)))))
        out = subst(phi(Var("w")), "w", C2)
        assert out == phi(Cname(C2))
        assert out.free == frozenset() and out.order == ()
        both = subst(Eq(Var("w"), Var("w")), "w", C2)
        assert both == Eq(Cname(C2), Cname(C2)) and not both.free

    def test_connectives(self):
        phi = Implies(Not(Eq(Var("x"), Cname(C1))),
                      Or(Member(Var("x"), Cname(C1)), Eq(Cname(C1), Cname(C1))))
        out = subst(phi, "x", C2)
        assert out.free == frozenset()


class TestConstantsAndBuilders:
    def test_constants_collects_atoms_and_bounds(self):
        phi = Exists("x", InName(C2), Member(Var("x"), Cname(C1)))
        assert constants(phi) == {C1, C2}

    @pytest.mark.parametrize("bound", [RankLE, OrdLT])
    def test_negative_bounds_refused(self, bound):
        with pytest.raises(InvalidInput):
            bound(-1)
        assert bound(0).bound == 0

    def test_rank_and_ord_bounds_add_no_constants(self):
        phi = Exists("x", RankLE(2), Eq(Var("x"), Cname(C1)))
        assert constants(phi) == {C1}

    def test_constants_through_nested_bounds(self):
        phi = Exists("x", InName(C1), Forall(
            "y", InName(C2), Not(Exists(
                "z", InName(C3), Implies(Member(Var("z"), Var("y")),
                                         Eq(Var("x"), Cname(C4)))))))
        assert constants(phi) == {C1, C2, C3, C4}
        with pytest.raises(InvalidInput):
            constants(Var("x"))

    def test_disj(self):
        a = Eq(Cname(C1), Cname(C1))
        b = Member(Cname(C1), Cname(C2))
        assert disj([a, b, a]) == Or(Or(a, b), a)
        assert disj(p for p in (a, b)) == Or(a, b)
        assert disj((a,)) is a

    @pytest.mark.parametrize("parts", [
        [], (), 5, None, {"a": 1}, [5], ["x"], [Eq(Cname(C1), Cname(C1)), 5],
        (p for p in [5]),
    ], ids=["empty-list", "empty-tuple", "int", "none", "dict", "lone-int",
            "lone-str", "formula-then-int", "generator-of-int"])
    def test_disj_refuses_what_is_not_formulas(self, parts):
        with pytest.raises(InvalidInput):
            disj(parts)

    def test_formulas_are_hashable_values(self):
        phi = Not(Member(Cname(C1), Cname(C2)))
        assert phi == Not(Member(Cname(C1), Cname(C2)))
        assert hash(phi) == hash(Not(Member(Cname(C1), Cname(C2))))


FLAT = FlatPoset(Family([("a", [nat(0)])]))


class TestDeepFormulas:
    # Nesting is read off a formula's depth, never off Python's stack:
    # constants and max_rank_bound read any depth, and subst refuses a
    # formula past MAX_NESTING as the routes do, and substitutes one they
    # decide.
    def test_a_thousand_levels_are_read_and_refused_by_subst(self):
        phi = Exists("y", InName(C2), nots(997, Exists(
            "z", RankLE(2), Member(Var("x"), Cname(C1)))))
        assert phi.depth == 1000
        assert constants(phi) == {C1, C2}
        assert max_rank_bound(phi) == 2
        with pytest.raises(InvalidInput, match="nested too deeply"):
            subst(phi, "x", EMPTY_NAME)

    def test_the_deepest_substituted_formula_is_decided(self):
        # 2 x 423 + 4 x rank(1-check) is exactly MAX_NESTING.
        phi = subst(nots(422, Member(Var("x"), Cname(C1))), "x", EMPTY_NAME)
        assert 2 * phi.depth + 4 * phi.rank == MAX_NESTING
        assert forces_semantic(FLAT, ONE, phi)
        assert forces_syntactic(FLAT, ONE, phi)


# Arguments of the wrong kind, refused where they are passed rather than
# escaping from a route as an AttributeError or TypeError.
WRONG_KINDS = {
    "member-of-ints": lambda: forces_semantic(FLAT, ONE, Member(1, 2)),
    "cname-of-int-semantic": lambda: forces_semantic(
        FLAT, ONE, Member(Cname(3), Cname(EMPTY_NAME))),
    "cname-of-int-syntactic": lambda: forces_syntactic(
        FLAT, ONE, Member(Cname(3), Cname(EMPTY_NAME))),
    "inname-of-int": lambda: forces_semantic(
        FLAT, ONE, Exists("x", InName(3), Member(Var("x"), Cname(C1)))),
    "var-of-int": lambda: Var(3),
    "quantifier-var-of-int": lambda: forces_semantic(
        FLAT, ONE,
        Exists(3, InName(EMPTY_NAME), Member(Cname(C1), Cname(C1)))),
    "hf-of-int": lambda: HF([1]),
    "family-of-int": lambda: theta_family(FlatPoset(Family([("a", [1])]))),
}


@pytest.mark.parametrize("call", WRONG_KINDS.values(), ids=WRONG_KINDS.keys())
def test_wrong_kind_is_invalid_input(call):
    with pytest.raises(InvalidInput):
        call()


# Every formula node class with valid field values, and the kind of each
# field; the values below are of every other kind.
ATOM = Member(Cname(C1), Cname(C2))
NODES = {
    Var: (("x", "str"),),
    Cname: ((C1, "name"),),
    InName: ((C1, "name"),),
    RankLE: ((1, "natural"),),
    OrdLT: ((1, "natural"),),
    Member: ((Var("x"), "term"), (Cname(C1), "term")),
    Eq: ((Var("x"), "term"), (Cname(C1), "term")),
    Not: ((ATOM, "formula"),),
    And: ((ATOM, "formula"), (ATOM, "formula")),
    Or: ((ATOM, "formula"), (ATOM, "formula")),
    Implies: ((ATOM, "formula"), (ATOM, "formula")),
    Exists: (("x", "str"), (OrdLT(1), "bound"), (ATOM, "formula")),
    Forall: (("x", "str"), (InName(C1), "bound"), (ATOM, "formula")),
}
WRONG = {
    "str": (5, None, b"x", Var("x"), []),
    "name": ("x", 5, None, Cname(C1), nat(1), []),
    "natural": (-1, True, 1.0, "1", None, RankLE(1), []),
    "term": ("x", 5, None, C1, ATOM, RankLE(1), []),
    "formula": (5, None, True, "x", C1, Var("x"), Cname(C1), OrdLT(1), []),
    "bound": (5, None, C1, Cname(C1), Var("x"), ATOM, []),
}
BUILDS = [
    pytest.param(cls, at, bad,
                 id=f"{cls.__name__}-{at}-{type(bad).__name__}")
    for cls, fields in NODES.items()
    for at, (_, kind) in enumerate(fields)
    for bad in WRONG[kind]
]


@pytest.mark.parametrize("cls", NODES, ids=[c.__name__ for c in NODES])
def test_every_node_class_builds_from_valid_fields(cls):
    node = cls(*(value for value, _ in NODES[cls]))
    assert node is cls(*(value for value, _ in NODES[cls]))


@pytest.mark.parametrize("cls, at, bad", BUILDS)
def test_wrong_kind_field_is_refused_at_construction(cls, at, bad):
    args = [value for value, _ in NODES[cls]]
    args[at] = bad
    with pytest.raises(InvalidInput):
        cls(*args)


# A seeded battery of formulas over every node kind, nested quantifiers,
# variables, and terms and bounds over names of rank 0 to 4.
def battery_names():
    names = [check_name(nat(r)) for r in range(5)]
    names += [PName([("a", check_name(nat(r)))]) for r in range(4)]
    names.append(PName([("a", EMPTY_NAME), (ONE, check_name(nat(3)))]))
    return names


def random_battery_formula(rng, names, depth):
    def term():
        if rng.random() < 0.5:
            return Var(rng.choice("xyz"))
        return Cname(rng.choice(names))

    kind = rng.randrange(8) if depth else rng.randrange(2)
    if kind < 2:
        return (Member, Eq)[kind](term(), term())
    if kind == 2:
        return Not(random_battery_formula(rng, names, depth - 1))
    if kind < 6:
        return (And, Or, Implies)[kind - 3](
            random_battery_formula(rng, names, depth - 1),
            random_battery_formula(rng, names, depth - 1))
    bound = rng.choice((InName(rng.choice(names)), RankLE(rng.randrange(3)),
                        OrdLT(rng.randrange(3))))
    return (Exists, Forall)[kind - 6](
        rng.choice("xyz"), bound, random_battery_formula(rng, names, depth - 1))


def recomputed(node):
    """free, order, depth and rank of a formula node, recomputed from its
    field values."""
    free, depth, rank = set(), 0, 0
    for v in node._values():
        if isinstance(v, _Formula):
            sub_free, _, sub_depth, sub_rank = recomputed(v)
            free |= sub_free
            depth, rank = max(depth, sub_depth), max(rank, sub_rank)
        elif isinstance(v, Var):
            free.add(v.name)
        elif isinstance(v, (Cname, InName)):
            rank = max(rank, v.name.rank)
    if isinstance(node, (Exists, Forall)):
        free.discard(node.var)
    return frozenset(free), tuple(sorted(free)), depth + 1, rank


def subformulas(phi):
    yield phi
    for v in phi._values():
        if isinstance(v, _Formula):
            yield from subformulas(v)


class TestDerivedFields:
    def test_every_node_agrees_with_a_recomputation(self):
        rng = random.Random(50)
        names = battery_names()
        kinds = set()
        for _ in range(400):
            phi = random_battery_formula(rng, names, rng.randrange(6))
            for node in subformulas(phi):
                kinds.add(type(node))
                got = (node.free, node.order, node.depth, node.rank)
                assert got == recomputed(node), node
                assert type(node.free) is frozenset
        assert kinds == {Member, Eq, Not, And, Or, Implies, Exists, Forall}

    def test_fields_of_hand_built_nodes(self):
        x, y = Var("x"), Var("y")
        inner = Forall("y", InName(C4), Member(y, x))
        phi = Exists("x", OrdLT(2), And(inner, Eq(x, Cname(C2))))
        assert (inner.free, inner.order, inner.depth, inner.rank) == \
            ({"x"}, ("x",), 2, 4)
        assert (phi.free, phi.order, phi.depth, phi.rank) == \
            (frozenset(), (), 4, 4)


@pytest.mark.parametrize("cls", NODES, ids=[c.__name__ for c in NODES])
def test_copies_and_pickles_of_a_node_are_the_interned_node(cls):
    node = cls(*(value for value, _ in NODES[cls]))
    assert copy.copy(node) is node
    assert copy.deepcopy(node) is node
    assert pickle.loads(pickle.dumps(node)) is node


@pytest.mark.parametrize("value", [
    nat(3), HF([nat(0), HF([nat(2)])]), EMPTY_NAME, C3,
    PName([("a", C1), (ONE, C2)]),
], ids=["nat", "hf", "empty-name", "check-name", "mixed-name"])
def test_copies_and_pickles_of_sets_and_names_are_interned(value):
    assert copy.copy(value) is value
    assert copy.deepcopy(value) is value
    assert pickle.loads(pickle.dumps(value)) is value
