"""The public boundary: every callable that ``forcelab`` exports answers or
raises a ``ForceLabError``, whatever the kinds of its arguments, and each
declares the kinds of its parameters once, with ``errors.takes``.

Two sweeps call every public callable with malformed arguments and accept
an answer or a ``ForceLabError``, nothing else:

* every one of the 61 callables with one to three required arguments, on
  every combination of ``MALFORMED`` values: 9,160 calls;
* every one of the 82 callables in ``VALID``, one argument at a time: each
  argument of a valid call is replaced by each ``MALFORMED`` value in turn
  while the others stay valid: 1,550 calls.

Each sweep must finish within 5 s.
"""

import inspect
import itertools
import time

import pytest

import forcelab
from forcelab import (
    EMPTY, EMPTY_NAME, ONE, Assignment, ChoiceFunction, ChoicePoset,
    CohenGridPoset, Cname, Family, FlatPoset, ForceLabError, InName,
    InvalidInput, Member, NameSpace, Perm, PName, Var, build_witness_flat,
    check_name, errors, forces_semantic, g_to_g1, gamma_name,
    generic_filter, mix, nat, xdot_name,
)

MALFORMED = (None, 5, -1, "x", 1.5, True, [], {"a": 1}, object(), (1, 2))

FAM = Family([("a", [nat(0), nat(1)]), ("b", [nat(2)])])
FLAT = FlatPoset(FAM)
GAMMA = gamma_name(FLAT)
PHI = Member(Cname(check_name(FLAT.condition_hf("a"))), Cname(GAMMA))
THETA = Member(Var("x"), Cname(GAMMA))
ORDINAL = Member(Var("x"), Cname(check_name(nat(2))))
SPACE = NameSpace(FLAT, (GAMMA,), 1)
AT_A = generic_filter(FLAT, "a")
CHOSEN = ChoiceFunction(FAM, {"a": nat(0), "b": nat(2)})
GRID = CohenGridPoset(2, 2)
ASG = Assignment(GRID, [0, 1, 1, 0])
XDOT = xdot_name(GRID, 0)
PERM = Perm([(0, 1)])

# One valid call of each public callable but the error classes, as its
# positional arguments.
VALID = {
    "HF": lambda: ((EMPTY,),),
    "kuratowski": lambda: (EMPTY, nat(1)),
    "nat": lambda: (3,),
    "nat_value": lambda: (nat(2),),
    "BinaryTreePoset": lambda: (2,),
    "ChoicePoset": lambda: (FAM, 2),
    "CohenGridPoset": lambda: (2, 2),
    "ExplicitPoset": lambda: (["p", "1"], [("p", "1")], "1"),
    "Family": lambda: ([("a", [nat(0)])],),
    "Filter": lambda: (FLAT, ["a", "1"]),
    "FlatPoset": lambda: (FAM,),
    "InjPoset": lambda: ([0, 1], [0, 1], [0], [1]),
    "MapPoset": lambda: ([0, 1], [0, 1], [0], [1]),
    "enumerate_maximal_antichains": lambda: (ChoicePoset(FAM, 2),),
    "fn_omega_omega": lambda: (1, 2),
    "generic_filter": lambda: (FLAT, "a"),
    "inj_omega_omega": lambda: (1, 2),
    "is_dense": lambda: (FLAT, ["a", "b"]),
    "is_maximal_antichain": lambda: (FLAT, ["a", "b"]),
    "PName": lambda: (((ONE, EMPTY_NAME),),),
    "check_name": lambda: (nat(2),),
    "eval_name": lambda: (GAMMA, AT_A),
    "gamma_name": lambda: (FLAT,),
    "hereditary_closure": lambda: ([GAMMA],),
    "name_conditions": lambda: (GAMMA,),
    "name_hf": lambda: (check_name(nat(1)),),
    "ordered_pair_name": lambda: (EMPTY_NAME, GAMMA),
    "unordered_pair_name": lambda: (EMPTY_NAME, GAMMA),
    "And": lambda: (PHI, PHI),
    "Cname": lambda: (GAMMA,),
    "Eq": lambda: (Var("x"), Cname(GAMMA)),
    "Exists": lambda: ("x", InName(GAMMA), THETA),
    "Forall": lambda: ("x", InName(GAMMA), THETA),
    "Implies": lambda: (PHI, PHI),
    "InName": lambda: (GAMMA,),
    "Member": lambda: (Var("x"), Cname(GAMMA)),
    "Not": lambda: (PHI,),
    "Or": lambda: (PHI, PHI),
    "OrdLT": lambda: (2,),
    "RankLE": lambda: (1,),
    "Var": lambda: ("x",),
    "constants": lambda: (PHI,),
    "disj": lambda: ([PHI, PHI],),
    "single_free_var": lambda: (THETA,),
    "subst": lambda: (THETA, "x", GAMMA),
    "NameSpace": lambda: (FLAT, [GAMMA], 1),
    "forces_semantic": lambda: (FLAT, "a", PHI, SPACE),
    "forces_syntactic": lambda: (FLAT, "a", PHI, SPACE),
    "least_ordinal_name": lambda: (FLAT, ONE, 3, ORDINAL),
    "mix": lambda: (FLAT, ONE, ["a", "b"], {"a": GAMMA, "b": EMPTY_NAME}),
    "mp_witness_search": lambda: (FLAT, ONE, THETA, SPACE),
    "ChoiceFunction": lambda: (FAM, {"a": nat(0), "b": nat(2)}),
    "all_choice_functions": lambda: (FAM,),
    "antichain_from_choice": lambda: (CHOSEN, {"a": 0, "b": 1}),
    "build_witness_flat": lambda: (CHOSEN,),
    "choice_from_antichain": lambda: (FAM, [(0, nat(0)), (0, nat(2))]),
    "extract_choice_flat": lambda: (build_witness_flat(CHOSEN), FLAT),
    "theta_family": lambda: (FLAT,),
    "Chain": lambda: (0, (3, 1, 0, 2, 4), (2, 5), (2, 4)),
    "Perm": lambda: ([(0, 1)], []),
    "act_name": lambda: (PERM, XDOT),
    "column_support": lambda: (XDOT,),
    "decompose": lambda: (Perm([(2, 3)]), 1, 4),
    "is_fixed_by_Hn": lambda: (XDOT, 1),
    "sigma_conjugate": lambda: ({(0, 0), (1, 2)}, 1, 3),
    "transposition": lambda: (0, 1),
    "Assignment": lambda: (GRID, [0, 1, 1, 0]),
    "GridSectionFilter": lambda: (GRID, {0: frozenset({1})}),
    "e_dense": lambda: (ASG, GRID.minimal_conditions()),
    "g1_to_g": lambda: (GRID, g_to_g1(ASG)),
    "g_to_g1": lambda: (ASG,),
    "hat_map": lambda: (XDOT, ASG),
    "r_sigma_condition": lambda: (ASG, {(0, 1)}),
    "r_sigma_name": lambda: (GRID, {(0, 1)}),
    "section_g1_conditions": lambda: ({0: frozenset({1})},),
    "square_below": lambda: (frozenset({((0, 1), 1)}),
                             frozenset({(0, frozenset({1}))})),
    "xcheckcheck_name": lambda: (GRID, 0),
    "xdot_name": lambda: (GRID, 0),
    "Command": lambda: ("forces",),
    "Scenario": lambda: ({},),
    "parse_scenario": lambda: ("family F { a: {0} }",),
    "tokenize": lambda: ("x",),
}


def public_callables() -> dict:
    """Every callable ``forcelab`` exports, the error classes aside."""
    out = {}
    for name in forcelab.__all__:
        obj = getattr(forcelab, name)
        if callable(obj) and not (isinstance(obj, type)
                                  and issubclass(obj, BaseException)):
            out[name] = obj
    return out


PUBLIC = public_callables()


def required(fn) -> int:
    """The number of arguments a call must give."""
    return sum(p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD
               for p in inspect.signature(fn).parameters.values())


FEW = {name: fn for name, fn in PUBLIC.items() if 1 <= required(fn) <= 3}


def escapes(calls) -> dict:
    """The callables that raise an exception other than a ForceLabError on
    some (callable, arguments) pair of ``calls``, by name, each with the
    first such call and its exception."""
    out = {}
    for name, fn, args in calls:
        try:
            fn(*args)
        except ForceLabError:
            pass
        except Exception as exc:  # what the sweep looks for
            out.setdefault(name, (args, repr(exc)))
    return out


def every_combination():
    for name, fn in FEW.items():
        for args in itertools.product(MALFORMED, repeat=required(fn)):
            yield name, fn, args


def one_at_a_time():
    for name, valid in VALID.items():
        args = valid()
        for i in range(len(args)):
            for bad in MALFORMED:
                yield name, PUBLIC[name], (*args[:i], bad, *args[i + 1:])


def test_the_valid_calls_answer():
    for name, valid in VALID.items():
        PUBLIC[name](*valid())


def test_sweep_sizes():
    assert len(PUBLIC) == 84
    assert sorted(VALID) == sorted(set(PUBLIC) - {"Formula", "Poset"})
    assert (len(FEW), sum(1 for _ in every_combination())) == (61, 9_160)
    assert (len(VALID), sum(1 for _ in one_at_a_time())) == (82, 1_550)


@pytest.mark.parametrize("sweep", [every_combination, one_at_a_time])
def test_malformed_arguments_get_an_answer_or_a_code(sweep):
    start = time.perf_counter()
    assert escapes(sweep()) == {}
    assert time.perf_counter() - start < 5.0


# Public callables that declare no kinds with ``takes``, each with why.
EXEMPT = (
    ("HF", "checks its own members; it is the hottest constructor"),
    ("PName", "checks its own entries; it is the hottest constructor"),
    ("nat", "checks its own argument on every natural the library reads"),
    *((node, "a formula node: its class declares each field's kind in "
       "_fields, which check_kind checks when the node is first built")
      for node in ("And", "Cname", "Eq", "Exists", "Forall", "Implies",
                   "InName", "Member", "Not", "Or", "OrdLT", "RankLE",
                   "Var")),
    ("Formula", "a type alias of the formula node classes"),
    ("Poset", "the abstract base of the poset kinds; it takes nothing"),
    ("square_below", "takes a condition of each of two posets, ONE "
     "included, and checks each by value"),
    ("section_g1_conditions", "takes a mapping or a map of pairs, which "
     "one helper checks by value, as it does for GridSectionFilter"),
)


def declared(obj) -> bool:
    """Does obj, or a class's ``__init__``, carry a ``takes`` declaration?
    Each declaration marks its wrapper with the kinds, as ``__takes__``."""
    fn = obj.__init__ if isinstance(obj, type) else obj
    return isinstance(getattr(fn, "__takes__", None), dict)


def undeclared(public: dict) -> list[str]:
    """The callables of ``public`` that neither declare nor are exempt."""
    exempt = dict(EXEMPT)
    return sorted(name for name, obj in public.items()
                  if not declared(obj) and name not in exempt)


def test_every_public_callable_is_declared_or_exempt():
    exempt = dict(EXEMPT)
    assert len(exempt) == len(EXEMPT)
    assert undeclared(PUBLIC) == []
    assert sorted(name for name in exempt if declared(PUBLIC[name])) == []


def test_an_undeclared_public_callable_is_caught():
    def planted(x):
        return x

    class Planted:
        def __init__(self, x):
            self.x = x

    plants = {"planted": planted, "Planted": Planted,
              "kept": errors.takes(x=int)(lambda x: x),
              "Kept": errors.takes(x=int)(type("Kept", (Planted,), {}))}
    assert undeclared({**PUBLIC, **plants}) == ["Planted", "planted"]


def test_a_refusal_names_the_callable_and_the_parameter():
    with pytest.raises(InvalidInput) as info:
        forces_semantic(None, ONE, PHI)
    assert str(info.value) == \
        "forces_semantic takes poset as Poset, not None"
    with pytest.raises(InvalidInput) as info:
        NameSpace(FLAT, [GAMMA, 5], 1)
    assert str(info.value) == \
        "NameSpace takes a member of base_names as PName, not 5"
    # A missing filter is the caller's error, not a malformed HF set.
    with pytest.raises(InvalidInput) as info:
        forcelab.eval_name(PName([("0", EMPTY_NAME)]), None)
    assert str(info.value) == "eval_name takes filt as Container, not None"


@pytest.mark.parametrize("n", [18, 40])
def test_a_refusal_describes_a_high_rank_value_by_kind(n):
    # repr(check(n)) unfolds to 2^n - 1 entries; the refusal stays short.
    start = time.perf_counter()
    with pytest.raises(InvalidInput) as info:
        forces_semantic(FLAT, ONE, check_name(nat(n)))
    assert time.perf_counter() - start < 0.1
    assert str(info.value) == \
        f"forces_semantic takes phi as Formula, not a PName of rank {n}"
    assert len(str(info.value)) < 1000


ONE_BLOCK = FlatPoset(Family([("a", [nat(0)])]))

# A refusal of a term or bound node, or of a high-rank value in another
# module's own check, as (call, code, the value as the message shows it).
HIGH_RANK_REFUSALS = {
    "space-base": (lambda: NameSpace(
        ONE_BLOCK, [Cname(check_name(nat(20)))], 1),
        "invalid-input", "a Cname of rank 20"),
    "disj-part": (lambda: forcelab.disj([Cname(check_name(nat(18)))]),
                  "invalid-input", "a Cname of rank 18"),
    "mix-name": (lambda: mix(ONE_BLOCK, ONE, [ONE],
                             {ONE: Cname(check_name(nat(18)))}),
                 "invalid-input", "a Cname of rank 18"),
    "mix-bound": (lambda: mix(ONE_BLOCK, ONE, [ONE],
                              {ONE: InName(check_name(nat(18)))}),
                  "invalid-input", "an InName of rank 18"),
    "choice-value": (lambda: ChoiceFunction(
        Family([("a", [nat(0)])]), {"a": check_name(nat(20))}),
        "value-escapes-block", "a PName of rank 20"),
    "grid-condition": (lambda: forcelab.square_below(
        check_name(nat(20)), ONE), "invalid-input", "a PName of rank 20"),
    "grid-valuation": (lambda: forcelab.square_below(
        ONE, check_name(nat(20))), "invalid-input", "a PName of rank 20"),
    "grid-filter": (lambda: forcelab.g1_to_g(GRID, check_name(nat(20))),
                    "invalid-input", "a PName of rank 20"),
    "section-map": (lambda: forcelab.section_g1_conditions(
        {0: check_name(nat(18))}),
        "invalid-input", "{0: a PName of rank 18}"),
    "chain-tail": (lambda: forcelab.Chain(0, (), (check_name(nat(18)),) * 3,
                                          (1, 0)),
                   "invalid-input", "(a PName of rank 18, a PName of rank 18, "
                                    "a PName of rank 18)"),
}


@pytest.mark.parametrize("case", sorted(HIGH_RANK_REFUSALS))
def test_a_refusal_describes_a_term_or_value_by_kind_and_rank(case):
    # The repr of each value unfolds to 2^18 - 1 entries or more; the
    # refusal stays short and quick.
    call, code, shown = HIGH_RANK_REFUSALS[case]
    start = time.perf_counter()
    with pytest.raises(ForceLabError) as info:
        call()
    assert time.perf_counter() - start < 0.1
    assert info.value.code == code
    assert shown in str(info.value)
    assert len(str(info.value)) < 1000


@pytest.mark.parametrize("value", [
    (), (1,), [1, "a"], {0: frozenset({1})}, set(), {3}, frozenset(),
    (check_name(nat(3)), None), {"k": [(1, 2.5)]}, 10 ** 200, "x" * 400])
def test_a_refusal_shows_a_short_value_by_its_repr(value):
    assert errors.described(value) == repr(value)


@pytest.mark.parametrize("value", [
    list(range(10 ** 5)), "x" * 10 ** 5, check_name(nat(8)),
    10 ** 5000, -10 ** 5000, {i: (i,) for i in range(10 ** 4)}],
    ids=["list", "str", "check-8", "int", "negative-int", "dict"])
def test_a_refusal_shows_at_most_a_bounded_prefix_of_a_long_value(value):
    # 10 ** 5000 has more digits than ``repr`` will print.
    shown = errors.described(value)
    assert len(shown) <= errors.SHOWN + 3
    assert shown.endswith("...") or shown.startswith("an int of")


def test_mix_refuses_an_assigned_value_that_is_not_a_name():
    with pytest.raises(InvalidInput) as info:
        mix(FLAT, ONE, ("a", "b"), {"a": 5, "b": EMPTY_NAME})
    assert info.value.code == "invalid-input"
    assert "'a'" in str(info.value)


def test_a_bool_is_never_an_int():
    with pytest.raises(InvalidInput):
        forcelab.BinaryTreePoset(True)
    with pytest.raises(InvalidInput):
        Assignment(GRID, [0, True, 1, 0])


def test_none_passes_only_where_it_is_the_default():
    assert ChoicePoset(FAM, None).level_bound is None
    assert forcelab.MapPoset(None, None, [0], [1]).dom_window == (0,)
    assert forces_semantic(FLAT, "a", PHI, None) is True
    with pytest.raises(InvalidInput):
        forcelab.mp_witness_search(FLAT, ONE, THETA, None)


def test_an_iterable_parameter_reaches_the_body_as_a_tuple():
    space = NameSpace(FLAT, iter([GAMMA]), 1)
    assert space.base_names == (GAMMA,)
    assert NameSpace(FLAT, base_names=[GAMMA], rank_bound=1).base_names == \
        (GAMMA,)


def broken():
    yield len(5)


# Each constructor or function that reads an argument's members itself, as
# a way to hand it an iterable, with malformed arguments of that shape.
# What the caller's own iterable raises propagates, through
# ``errors.pass_on_callers``; a malformed argument is still invalid input.
READS = {
    "HF": (forcelab.HF, [5, [[1]]]),
    "PName": (PName, [5, [[1]]]),
    "Family": (lambda it: Family([("a", it)]), [5, [[1]]]),
    "g1_to_g": (lambda it: forcelab.g1_to_g(
        GRID, [frozenset({(0, it)})]), [5, ((1,),)]),
    "GridSectionFilter": (lambda it: forcelab.GridSectionFilter(GRID, it),
                          [5, [(0, 1)], [1]]),
    "square_below": (lambda it: forcelab.square_below(ONE, it),
                     [5, [(0, 1)], [1]]),
    "section_g1_conditions": (forcelab.section_g1_conditions,
                              [5, [(0, 1)], [1]]),
}


@pytest.mark.parametrize("name", READS)
def test_constructors_pass_on_what_the_callers_iterable_raises(name):
    make, malformed = READS[name]
    with pytest.raises(TypeError, match="has no len"):
        make(broken())
    for bad in malformed:
        with pytest.raises(InvalidInput):
            make(bad)
