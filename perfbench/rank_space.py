"""Workload ``rank-space``: ``RankLE`` quantifiers and witness search.

Operations build a ``NameSpace`` of 64 to 512 names and then either decide
a ``RankLE`` formula at every condition by both routes, or search the space
for the first name a condition forces to satisfy a formula
(``mp_witness_search``) and confirm the answer by the syntactic route and
by evaluating every name along the generic filters.  A few inputs exceed the
name-space cap and must fail fast with code ``invalid-input``.  Name-space
construction, substitution and per-name evaluation dominate here.
"""

from __future__ import annotations

import time

from forcelab import (
    EMPTY_NAME, Cname, Eq, ForceLabError, Member, NameSpace, Var,
    check_name, eval_name, forces_semantic, forces_syntactic,
    generic_filter, mp_witness_search, nat, subst,
)

from specs import Mismatch, build_formula, build_poset

# (poset kind, space rank): the spaces hold 64, 256, 256, 128, 512 and 128
# names over the base names {}-check and 1-check.
SPACES = {
    "flat2": 2, "flat3": 2, "explicit4": 2, "tree2": 1, "fn22": 1, "inj22": 1,
}
# Decide strata of one round: (space, quantifier, body).  In a body, G is
# the filter name, C the check-name of a random condition's code, D that of
# a random condition below the top, and K the check-name of 1 or 2.  Each
# stratum was kept only if its cost varies little with the terms drawn (the
# two with D take a tenth of their time when the top is drawn).
# All but one stay near or below 0.1 s; fn22 "ex v = D" is the slow
# syntactic RankLE route on 512 names, 0.45-0.65 s over the nine
# conditions when this was written.  Shapes that take seconds, such as fn22
# "ex v = G", are left out, as they would set most of a run's time.  The
# four heaviest strata (fn22 "ex v = D", inj22 "G in v", tree2 "G in v"
# and "D in v", 80 ms and more) sit above three copies of fn22
# "ex v in G" (about 40 ms, and the same operation every time, as it
# draws no term), which sit at the top of a block of strata of 35-40 ms.
# The 90th percentile of a round's 57 operations, 5.7 from the top, falls
# among those copies, where it does not jump with the terms a seed draws.
DECIDE = (
    ("flat2", "ex", "G in v"), ("flat2", "ex", "v = G"),
    ("flat2", "ex", "v = K"), ("flat2", "ex", "v in G"),
    ("flat2", "all", "v in G"), ("flat2", "all", "C in v"),
    ("flat2", "all", "G in v"), ("flat2", "all", "v = C"),
    ("flat2", "all", "v in K"),
    ("flat3", "ex", "v in G"), ("flat3", "ex", "G in v"),
    ("flat3", "ex", "v in K"), ("flat3", "ex", "v = K"),
    ("flat3", "all", "v in G"), ("flat3", "all", "C in v"),
    ("flat3", "all", "v = G"), ("flat3", "all", "K in v"),
    ("flat3", "all", "v in K"),
    ("explicit4", "ex", "G in v"), ("explicit4", "ex", "v = K"),
    ("explicit4", "ex", "v in G"),
    ("explicit4", "all", "G in v"), ("explicit4", "all", "v = C"),
    ("explicit4", "all", "v = G"), ("explicit4", "all", "v in K"),
    ("tree2", "ex", "v in G"), ("tree2", "ex", "G in v"),
    ("tree2", "ex", "D in v"), ("tree2", "all", "v in G"),
    ("tree2", "all", "C in v"), ("tree2", "all", "G in v"),
    ("tree2", "all", "v = C"),
    ("fn22", "ex", "v in G"), ("fn22", "ex", "v in G"),
    ("fn22", "ex", "v in G"), ("fn22", "ex", "v in K"),
    ("fn22", "ex", "v = D"),
    ("fn22", "all", "v in C"),
    ("inj22", "ex", "v in G"), ("inj22", "ex", "G in v"),
    ("inj22", "all", "v in G"), ("inj22", "all", "v = C"),
    ("inj22", "all", "G in v"), ("inj22", "all", "C in v"),
    ("inj22", "all", "K in v"),
)
# Witness strata: one search with a witness and one without, per space
# other than the smallest.
WITNESS = tuple((space, found) for space in SPACES if space != "flat2"
                for found in (True, False))
# Inputs over the name-space cap, 2^30 and 2^18 assembled names: they must
# be refused with invalid-input, and fast (they take about 0.1 ms).
OVER_CAP = ((("tree", 3), 2), (("fn", 2, 2), 2))
OVER_CAP_LIMIT_S = 1.0
# Conditions of the spaces whose strata draw D; the first is the top.
CONDITIONS = {"tree2": 7, "fn22": 9}
ROUNDS_PER_SECOND = 1


def random_poset(rng, space):
    if space in ("flat2", "flat3"):
        k = int(space[-1])
        return ("flat", tuple(rng.sample("abcdefgh", k)),
                tuple(rng.sample(range(6), k)))
    if space == "explicit4":
        elements = ("p", "q", "r")
        pairs = [(a, b) for i, a in enumerate(elements)
                 for b in elements[i + 1:] if rng.random() < 0.4]
        return ("explicit", elements, tuple(pairs))
    if space == "tree2":
        return ("tree", 2)
    return (space[:-2], 2, 2)


def random_term(rng, kind, space):
    if kind == "G":
        return ("gamma",)
    if kind == "C":
        return ("cond", rng.randrange(16))
    if kind == "D":
        return ("cond", rng.randrange(1, CONDITIONS[space]))
    return ("check", rng.randint(1, 2))


def decide_op(rng, space, quantifier, body):
    left, op, right = body.split()
    atom = ("in" if op == "in" else "eq",
            ("var", "v") if left == "v" else random_term(rng, left, space),
            ("var", "v") if right == "v" else random_term(rng, right, space))
    rank = SPACES[space]
    phi = (quantifier, "v", ("rank", rank), atom)
    return ("decide", (random_poset(rng, space), rank, phi))


def witness_op(rng, space, found):
    """A search at a random condition.  With a witness, the formula is
    ``x = u`` for a random member u of the space, so the first witness is
    the first member of u's class and lands at varied positions; without,
    it asks for a member of the empty set or for the value 3, whose rank
    no name of the space reaches."""
    if found:
        theta = ("target", rng.randrange(1 << 16))
    else:
        theta = (rng.choice(("empty", "three")),)
    return ("witness", (random_poset(rng, space), SPACES[space],
                        rng.randrange(16), theta))


def generate(rng, rounds):
    """One warm-up operation per operation kind, then ``rounds`` rounds of
    every stratum, each shuffled."""
    warmups = [decide_op(rng, *DECIDE[0]), witness_op(rng, "flat3", True),
               ("over-cap", OVER_CAP[0])]
    ops = []
    for _ in range(rounds):
        block = [decide_op(rng, *stratum) for stratum in DECIDE]
        block += [witness_op(rng, *stratum) for stratum in WITNESS]
        block += [("over-cap", spec) for spec in OVER_CAP]
        rng.shuffle(block)
        ops += block
    return warmups, ops


def base_names():
    return [EMPTY_NAME, check_name(nat(1))]


def run(kind, spec):
    """Do one operation; return a callable that checks its answer."""
    if kind == "decide":
        poset_spec, rank, formula_spec = spec
        poset = build_poset(poset_spec)
        space = NameSpace(poset, base_names(), rank)
        phi = build_formula(formula_spec, poset)
        for c in poset.conditions():
            sem = forces_semantic(poset, c, phi, space)
            syn = forces_syntactic(poset, c, phi, space)
            if sem != syn:
                raise Mismatch(
                    f"routes disagree at {poset.condition_repr(c)}: "
                    f"semantic {sem}, syntactic {syn}, {formula_spec}")
        return None
    if kind == "witness":
        return _witness(*spec)
    poset_spec, rank = spec
    start = time.perf_counter()
    try:
        NameSpace(build_poset(poset_spec), base_names(), rank)
    except ForceLabError as exc:
        if exc.code != "invalid-input":
            raise Mismatch(f"over-cap space failed with {exc.code}") from exc
        if time.perf_counter() - start > OVER_CAP_LIMIT_S:
            raise Mismatch(f"over-cap space {spec} took "
                           f"{time.perf_counter() - start:.2f} s to refuse")
        return None
    raise Mismatch(f"over-cap space {spec} was built")


def _witness(poset_spec, rank, cond_index, theta_spec):
    poset = build_poset(poset_spec)
    space = NameSpace(poset, base_names(), rank)
    conds = poset.conditions()
    p = conds[cond_index % len(conds)]
    x = Var("x")
    if theta_spec[0] == "target":
        target = space.universe[theta_spec[1] % len(space)]
        theta = Eq(x, Cname(target))
    elif theta_spec[0] == "empty":
        theta = Member(x, Cname(EMPTY_NAME))
    else:
        theta = Eq(x, Cname(check_name(nat(3))))
    found = mp_witness_search(poset, p, theta, space)

    def check():
        if found is not None and not forces_syntactic(
                poset, p, subst(theta, "x", found), space):
            raise Mismatch("the syntactic route rejects the witness found")
        expected = _first_witness(poset, p, space, theta)
        got = None if found is None else space.universe.index(found)
        if got != expected:
            raise Mismatch(f"first witness at {got}, expected {expected}")

    return check


def _first_witness(poset, p, space, theta):
    """The index of the first name that satisfies ``theta`` along every
    generic filter below p, by direct evaluation; None when no name does."""
    if isinstance(theta, Member):
        return None  # x in {}: nothing is a member of the empty set
    filters = [generic_filter(poset, m) for m in poset.minimal_conditions()
               if poset.le(m, p)]
    want = [eval_name(theta.right.name, f) for f in filters]
    for i, tau in enumerate(space.universe):
        if [eval_name(tau, f) for f in filters] == want:
            return i
    return None
