"""Workload ``truth-lemma``: both forcing routes on small posets.

One operation builds a random small poset and a random closed formula of
depth at most 3 (atoms, ``InName`` and ``OrdLT`` bounds, no ``RankLE``),
decides the formula at every condition by the semantic and the syntactic
route, and requires the two answers to agree.  No name space is built, so
the poset order and the forcing recursion do almost all of the work.
"""

from __future__ import annotations

from forcelab import forces_semantic, forces_syntactic

from specs import Mismatch, build_formula, build_poset

# Poset kinds of one round; every round has the same mix, so the cost of a
# run depends on the seed only through what is drawn within each stratum.
ROUND = ("explicit", "explicit", "flat", "flat", "tree", "fn", "inj")
# Quantifier prefixes crossed with every poset kind of a round: the prefix
# sets most of an operation's cost, so fixing the mix steadies a run.
SHAPES = ((), ("ord",), ("in",), ("ord", "in"), ("in", "ord"))
ROUNDS_PER_SECOND = 12
LABELS = "abcdefgh"


def random_poset(rng, kind):
    if kind == "explicit":
        n = rng.randint(1, 6)
        elements = [f"e{i}" for i in range(n)]
        pairs = [(elements[i], elements[j])
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.35]
        return ("explicit", tuple(elements), tuple(pairs))
    if kind == "flat":
        k = rng.randint(2, 4)
        return ("flat", tuple(rng.sample(LABELS, k)),
                tuple(rng.sample(range(8), k)))
    if kind == "tree":
        return ("tree", 2)
    return (kind, 2, 2)


def random_closed_term(rng):
    r = rng.random()
    if r < 0.3:
        return ("gamma",)
    if r < 0.6:
        return ("cond", rng.randrange(16))
    if r < 0.9:
        return ("check", rng.randrange(3))
    return ("empty",)


def random_term(rng, scope):
    if scope and rng.random() < 0.5:
        return ("var", rng.choice(scope))
    return random_closed_term(rng)


def random_matrix(rng, depth, scope):
    """A quantifier-free formula of depth at most ``depth``."""
    if depth == 0 or rng.random() < 0.3:
        op = "in" if rng.random() < 0.7 else "eq"
        return (op, random_term(rng, scope), random_term(rng, scope))
    if rng.random() < 0.25:
        return ("not", random_matrix(rng, depth - 1, scope))
    return (rng.choice(("and", "or", "imp")),
            random_matrix(rng, depth - 1, scope),
            random_matrix(rng, depth - 1, scope))


def random_bound(rng, kind):
    if kind == "ord":
        return ("ord", rng.randint(1, 3))
    return ("in", random_closed_term(rng))


def random_formula(rng, quantifiers):
    """A closed formula of depth at most 3 whose quantifier prefix has the
    given bound kinds, outermost first, over a random matrix."""
    scope = tuple(f"v{i}" for i in range(len(quantifiers)))
    phi = random_matrix(rng, 3 - len(quantifiers), scope)
    for var, kind in reversed(list(zip(scope, quantifiers))):
        phi = (rng.choice(("ex", "all")), var, random_bound(rng, kind), phi)
    return phi


def generate(rng, rounds):
    """One warm-up operation per poset kind, then ``rounds`` rounds of
    operations, each shuffled."""
    def op(kind, quantifiers):
        return ("decide", (random_poset(rng, kind),
                           random_formula(rng, quantifiers)))

    warmups = [op(kind, ("ord",)) for kind in dict.fromkeys(ROUND)]
    ops = []
    for _ in range(rounds):
        block = [op(kind, quantifiers) for kind in ROUND
                 for quantifiers in SHAPES]
        rng.shuffle(block)
        ops += block
    return warmups, ops


def run(kind, spec):
    poset_spec, formula_spec = spec
    poset = build_poset(poset_spec)
    phi = build_formula(formula_spec, poset)
    for c in poset.conditions():
        sem = forces_semantic(poset, c, phi)
        syn = forces_syntactic(poset, c, phi)
        if sem != syn:
            raise Mismatch(f"routes disagree at {poset.condition_repr(c)}: "
                           f"semantic {sem}, syntactic {syn}, {formula_spec}")
