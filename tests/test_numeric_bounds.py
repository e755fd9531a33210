"""Numeric bounds of the library: a non-integer, or an integer below the
least value a bound takes, is refused with ``invalid-input`` where it is
passed, never with a bare TypeError or ValueError at first use."""

import pytest

from forcelab import (
    BinaryTreePoset, Chain, ChoicePoset, Cname, CohenGridPoset, EMPTY_NAME, Family,
    InvalidInput, Member, NameSpace, ONE, OrdLT, Perm, RankLE, Var,
    check_name, decompose, fn_omega_omega, inj_omega_omega, is_fixed_by_Hn,
    least_ordinal_name, nat, sigma_conjugate,
)

TREE = BinaryTreePoset(1)
FAMILY = Family([("a", [nat(0)]), ("b", [nat(1)])])
THETA = Member(Var("x"), Cname(check_name(nat(2))))

CALLS = {
    "namespace-float": lambda: NameSpace(TREE, (EMPTY_NAME,), 1.5),
    "ordlt-float": lambda: OrdLT(1.5),
    "rankle-str": lambda: RankLE("a"),
    "nat-float": lambda: nat(1.5),
    "nat-negative": lambda: nat(-1),
    "leastord-float": lambda: least_ordinal_name(TREE, ONE, 2.5, THETA),
    "choice-float": lambda: ChoicePoset(FAMILY, 1.5),
    "tree-float": lambda: BinaryTreePoset(1.5),
    "fn-float": lambda: fn_omega_omega(1.5, 2),
    "inj-negative": lambda: inj_omega_omega(2, -1),
    "grid-str": lambda: CohenGridPoset("2", 2),
    "fixed-str": lambda: is_fixed_by_Hn(EMPTY_NAME, "1"),
    "decompose-k-not-above-n": lambda: decompose(Perm(), 1, 1),
    "conjugate-bound-below-n": lambda: sigma_conjugate({(0, 0)}, 1, 0),
    "chain-offset-float": lambda: Chain(0, (), (1, 2.5), (1, 3)),
    "chain-step-float": lambda: Chain(0, (), (1.5, 2), (1, 3)),
    "chain-lo-float": lambda: Chain(0.5, (), (2, 0), (2, 1)),
    "chain-neg-tail-short": lambda: Chain(0, (), (1,), (1, 3)),
    "chain-pos-tail-int": lambda: Chain(0, (), (1, 3), 5),
    "chain-neg-tail-long": lambda: Chain(0, (), (1, 2, 3), (1, 3)),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_bad_bound_is_invalid_input(call):
    with pytest.raises(InvalidInput):
        call()
