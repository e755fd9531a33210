"""Every public condition-taking call on every poset kind gives an exact
answer or a ForceLabError with its code, and ONE stands for the top.

Validation lives in one place, ``Poset.resolve``; the last test pins that
no poset kind overrides the public methods that call it.
"""

import pytest

import forcelab
from forcelab import (
    EMPTY_NAME, HF, ONE, BinaryTreePoset, ChoicePoset, Cname,
    CohenGridPoset, ExplicitPoset, Family, Filter, FlatPoset, ForceLabError,
    InvalidInput, MapPoset, Member, NameSpace, PName, Poset,
    UnknownCondition, Var, check_name, eval_name, fn_omega_omega,
    forces_semantic, forces_syntactic, generic_filter, inj_omega_omega,
    is_dense, is_maximal_antichain, mp_witness_search, nat,
)

FAM = Family([("a", [nat(0), nat(1)]), ("b", [nat(2)])])

# kind -> (poset, a valid condition outside the truncation or None when the
# poset is finite, a truncation condition that the outside one extends)
KINDS = {
    "explicit": (ExplicitPoset(["a", "b", "1"], [("a", "1"), ("b", "1")],
                               "1"), None, None),
    "flat": (FlatPoset(FAM), None, None),
    "choice": (ChoicePoset(FAM, 2), (5, nat(0)), (0, nat(1))),
    "fn": (fn_omega_omega(2, 2), frozenset({(5, 0)}), frozenset()),
    "inj": (inj_omega_omega(2, 2), frozenset({(0, 5)}), frozenset()),
    "items": (MapPoset((0, 1), (0, 1)), None, None),
    "tree": (BinaryTreePoset(2), "0101", "01"),
    "grid": (CohenGridPoset(2, 1), frozenset({((5, 0), 1)}), frozenset()),
}

# Not a condition of any kind: foreign types, then malformed tuples,
# strings and frozensets.
NON_CONDITIONS = [
    None, 2.5, b"a", ["a"], {"a": 0}, nat(0),
    ("a",), (0, nat(0), 1), (-1, nat(0)), (0, "x"), (0, nat(7)), ("a", 0),
    ("z", "0"), "2", "0a",
    frozenset({(0,)}), frozenset({(0, 1, 2)}), frozenset({(0, 0), (0, 1)}),
    frozenset({("x", 0)}), frozenset({(0, -1)}), frozenset({((0, 0), 2)}),
]
# Malformed only for one kind.
KIND_NON_CONDITIONS = {
    "inj": [frozenset({(0, 1), (1, 1)})],
    "grid": [frozenset({((0, -1), 1)}), frozenset({(0, 1)})],
    "choice": [(0, "a")],
}

# Equal to (and hashing like) a condition of the kind's truncation, but
# not a condition: a float or a bool stands where a natural must.
EQUAL_NON_CONDITIONS = {
    "choice": [(1.0, nat(0)), (True, nat(0))],
    "fn": [frozenset({(0.0, 1)}), frozenset({(True, 0)})],
    "inj": [frozenset({(0, 1.0)}), frozenset({(0, True)})],
    "items": [frozenset({(True, 0)}), frozenset({(0, 1.0)})],
    "grid": [frozenset({((0.0, 0), 1)}), frozenset({((True, 0), 1)}),
             frozenset({((0, 0), True)})],
}

OPS = ("le", "le_rev", "compatible", "compatible_rev", "condition_hf",
       "index_of", "is_maximal_antichain", "is_maximal_antichain_pair",
       "is_dense", "generic_filter")


def run(poset, op, x, r):
    """One public call with the probe x (and the valid condition r)."""
    calls = {
        "le": lambda: poset.le(x, r),
        "le_rev": lambda: poset.le(r, x),
        "compatible": lambda: poset.compatible(x, r),
        "compatible_rev": lambda: poset.compatible(r, x),
        "condition_hf": lambda: poset.condition_hf(x),
        "index_of": lambda: poset.index_of(x),
        "is_maximal_antichain": lambda: is_maximal_antichain(poset, [x]),
        "is_maximal_antichain_pair":
            lambda: is_maximal_antichain(poset, [x, r]),
        "is_dense": lambda: is_dense(poset, [x]),
        "generic_filter": lambda: generic_filter(poset, x),
    }
    try:
        return "ok", calls[op]()
    except ForceLabError as e:
        return "error", e.code


def reference(poset):
    return poset.top if poset.top is not None else poset.conditions()[0]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("op", OPS)
def test_non_conditions_are_unknown(kind, op):
    poset = KINDS[kind][0]
    for x in (NON_CONDITIONS + KIND_NON_CONDITIONS.get(kind, [])
              + EQUAL_NON_CONDITIONS.get(kind, [])):
        assert run(poset, op, x, reference(poset)) == \
            ("error", "unknown-condition"), x


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("op", OPS)
def test_one_answers_as_the_top(kind, op):
    poset = KINDS[kind][0]
    for r in poset.conditions():
        got = run(poset, op, ONE, r)
        if poset.top is None:
            assert got == ("error", "invalid-input"), r
        else:
            assert got == run(poset, op, poset.top, r), r


@pytest.mark.parametrize("kind", [k for k in KINDS if KINDS[k][0].top is not None])
def test_one_is_above_and_compatible_with_everything(kind):
    poset = KINDS[kind][0]
    for p in poset.conditions():
        assert poset.le(p, ONE)
        assert poset.compatible(ONE, p)
        assert poset.compatible(p, ONE)
        assert poset.le(ONE, p) == (p == poset.top)


@pytest.mark.parametrize("kind", [k for k in KINDS if KINDS[k][1] is not None])
def test_condition_outside_the_truncation(kind):
    poset, x, above = KINDS[kind]
    escape = ("error", "truncation-escape")
    assert run(poset, "le", x, above) == ("ok", True)
    assert run(poset, "le_rev", x, above) == ("ok", False)
    assert run(poset, "compatible", x, above) == ("ok", True)
    assert run(poset, "compatible_rev", x, above) == ("ok", True)
    for op in ("index_of", "is_dense", "generic_filter"):
        assert run(poset, op, x, above) == escape, op
    # The choice poset decides maximality by blocks, with no truncation:
    # one pick from block a, or two, leave block b empty.
    maximal = ("ok", False) if kind == "choice" else escape
    assert run(poset, "is_maximal_antichain", x, above) == maximal
    assert run(poset, "is_maximal_antichain_pair", x, above) == maximal
    status, code = run(poset, "condition_hf", x, above)
    assert status == "ok" and isinstance(code, HF)
    assert code not in {poset.condition_hf(c) for c in poset.conditions()}


@pytest.mark.parametrize("kind", KINDS)
def test_unhashable_conditions(kind):
    # A name entry's condition is looked up in the kernel's index and a
    # filter's set before anything validates it; an unhashable one is not a
    # condition there either, and no filter holds it.
    poset = KINDS[kind][0]
    k = poset.kernel()
    filt = generic_filter(poset, reference(poset))
    for x in ([poset.conditions()[0]], {"a": 0}):
        with pytest.raises(UnknownCondition):
            k.below(x)
        assert x not in filt


@pytest.mark.parametrize("kind", EQUAL_NON_CONDITIONS)
def test_equal_copies_are_in_no_filter(kind):
    # A filter holds only conditions: an equal copy that resolve refuses is
    # in no generic filter, so eval_name drops an entry that holds it.
    # Names are interned by equal entries, so each row's name has a child
    # of its own, and it is evaluated along a copy of each filter, whose
    # memo does not keep it for later tests.
    poset = KINDS[kind][0]
    k = poset.kernel()
    for j, c in enumerate(EQUAL_NON_CONDITIONS[kind]):
        tau = PName([(c, check_name(nat(j)))])
        assert next(iter(tau.entries))[0] is c
        for a in k.minimals:
            filt = generic_filter(poset, k.conds[a])
            assert c not in filt, (c, a)
            assert eval_name(tau, Filter(poset, filt.conditions)) is HF(), \
                (c, a)


@pytest.mark.parametrize("kind", KINDS)
def test_index_of_matches_the_kernel_index_of_the_resolved_condition(kind):
    # index_of reads the kernel's index before it validates; every probe
    # must get the answer or the code of kernel().index[resolve(c)], with a
    # condition resolve accepts but the kernel does not index escaping the
    # truncation.
    poset, outside, _ = KINDS[kind]
    k = poset.kernel()

    def reference_index(c):
        try:
            c = poset.resolve(c)
        except ForceLabError as e:
            return "error", e.code
        if c not in k.index:
            return "error", "truncation-escape"
        return "ok", k.index[c]

    probes = [*poset.conditions(), ONE, [poset.conditions()[0]], {"a": 0},
              *NON_CONDITIONS, *KIND_NON_CONDITIONS.get(kind, []),
              *EQUAL_NON_CONDITIONS.get(kind, [])]
    if outside is not None:
        probes.append(outside)
    for c in probes:
        assert run(poset, "index_of", c, None) == reference_index(c), c
    assert [run(poset, "index_of", c, None) for c in poset.conditions()] \
        == [("ok", i) for i in range(len(k.conds))]


@pytest.mark.parametrize("kind", KINDS)
def test_below_matches_the_mask_of_the_resolved_condition(kind):
    # Kernel.below takes the kernel's mask only for the very object it
    # indexes, like index_of; an equal copy that resolve refuses (a float
    # or a bool for an int) gets resolve's code, and an accepted condition
    # outside the truncation gets the mask of its extensions, which is 0.
    poset, outside, _ = KINDS[kind]
    k = poset.kernel()

    def reference_below(c):
        if c is ONE:
            return "ok", k.full
        try:
            c = poset.resolve(c)
        except ForceLabError as e:
            return "error", e.code
        return "ok", sum(1 << j for j, p in enumerate(k.conds)
                         if poset.le(p, c))

    def below(c):
        try:
            return "ok", k.below(c)
        except ForceLabError as e:
            return "error", e.code

    probes = [*poset.conditions(), ONE, [poset.conditions()[0]], {"a": 0},
              *NON_CONDITIONS, *KIND_NON_CONDITIONS.get(kind, []),
              *EQUAL_NON_CONDITIONS.get(kind, [])]
    if outside is not None:
        probes.append(outside)
    for c in probes:
        assert below(c) == reference_below(c), c
    for c in EQUAL_NON_CONDITIONS.get(kind, []):
        assert below(c) == ("error", "unknown-condition"), c
    if outside is not None:
        assert below(outside) == ("ok", 0)


def test_index_of_validates_before_it_compiles():
    # With no truncation there is no kernel to read: each probe still gets
    # the code resolve gives it, and only a condition escapes.
    poset = ChoicePoset(FAM)
    assert run(poset, "index_of", 2.5, None) == ("error", "unknown-condition")
    assert run(poset, "index_of", ONE, None) == ("error", "invalid-input")
    assert run(poset, "index_of", (0, nat(0)), None) == \
        ("error", "truncation-escape")


@pytest.mark.parametrize("items", [
    dict(dom_items=([0],), cod_items=(0,)),
    dict(dom_items=(0.5,), cod_items=(0,)),
    dict(dom_items=(0,), cod_items=((0, [1]),)),
    dict(dom_items=(0,), cod_items=(frozenset({0.5}),)),
    dict(dom_items=(1, True), cod_items=(0,)),
    dict(dom_items=(0,), cod_items=(0, False)),
    dict(dom_items=((0, 1), (0, True)), cod_items=(0,)),
    dict(dom_items=(nat(0),), cod_items=(0,)),
    dict(dom_items=("a",), cod_items=(0,)),
    dict(dom_items=(0,), cod_items=((0, 1),)),
], ids=["unhashable", "float", "unhashable-tuple", "float-set", "bool-dom",
        "bool-cod", "equal-tuples", "hf", "str", "tuple"])
def test_map_poset_items_are_checked_when_it_is_built(items):
    # An item is a natural or a frozenset of naturals, among which equal
    # objects are the same item, so the kernel's equality index never
    # merges two items; the poset refuses any other item when it is built,
    # not when it is first enumerated.
    with pytest.raises(InvalidInput):
        MapPoset(**items)


def test_a_condition_without_a_canonical_key_is_unknown():
    # A name entry whose condition holds a float has no canonical key: its
    # key, its repr and the syntactic route each refuse it with a code.
    name = PName([((1.0, nat(0)), EMPTY_NAME)])
    for probe in (name.key, lambda: repr(name)):
        with pytest.raises(UnknownCondition):
            probe()
    phi = Member(Cname(EMPTY_NAME),
                 Cname(PName([(frozenset({(0, 0.0)}), EMPTY_NAME)])))
    with pytest.raises(UnknownCondition):
        forces_syntactic(fn_omega_omega(1, 1), ONE, phi)


# (poset, a name entry's condition that resolve refuses): a map with a
# float value equal to {(0, 0)}, and a flat poset's unknown label.
REFUSED_ENTRIES = {
    "fn-float": (lambda: fn_omega_omega(1, 1), frozenset({(0, 0.0)})),
    "flat-unknown": (lambda: FlatPoset(FAM), "zz"),
}


@pytest.mark.parametrize("case", REFUSED_ENTRIES)
def test_every_route_refuses_an_entry_resolve_refuses(case):
    # Both routes, the name space and the witness search read a name entry
    # through Kernel.below, so each gives the code resolve gives.
    make, cond = REFUSED_ENTRIES[case]
    poset = make()
    tau = PName([(cond, EMPTY_NAME)])
    phi = Member(Cname(EMPTY_NAME), Cname(tau))
    theta = Member(Var("x"), Cname(tau))
    space = NameSpace(poset, (EMPTY_NAME,), 1)
    calls = {
        "semantic": lambda: forces_semantic(poset, ONE, phi),
        "syntactic": lambda: forces_syntactic(poset, ONE, phi),
        "space": lambda: NameSpace(poset, (EMPTY_NAME, tau), 1),
        "witness": lambda: mp_witness_search(poset, ONE, theta, space),
    }
    for route, call in calls.items():
        with pytest.raises(UnknownCondition):
            call()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_no_poset_kind_overrides_the_validating_methods():
    # Poset.resolve is the one condition validator; the public methods
    # that call it stay on Poset, and kinds override _le, _compatible and
    # _condition_hf instead.
    public = ("le", "compatible", "resolve", "index_of", "condition_hf")
    kinds = [cls for cls in _subclasses(Poset)
             if cls.__module__.startswith(forcelab.__name__)]
    assert len(kinds) >= 7
    assert {f"{cls.__name__}.{name}" for cls in kinds for name in public
            if name in vars(cls)} == set()
