"""Plain-data specs for posets, terms and formulas, and their builders.

Generators emit nested tuples of strings and ints only; each operation turns
its spec into fresh library objects, so no object is shared between
operations and the library sees only generated inputs.

Poset specs::

    ("explicit", elements, pairs)   # pairs (a, b) mean a < b; top is "one"
    ("flat", labels, values)        # one block {value} per label
    ("tree", depth) | ("fn", dom, cod) | ("inj", dom, cod)

Term specs: ("var", v), ("check", n), ("cond", i) for the check-name of the
i-th condition's code (modulo the condition count), ("gamma",), ("empty",).

Formula specs: ("in", t, t), ("eq", t, t), ("not", f), ("and", f, f),
("or", f, f), ("imp", f, f), ("ex" | "all", v, bound, f) with bound
("in", t), ("ord", k) or ("rank", k).
"""

from __future__ import annotations

from forcelab import (
    And, BinaryTreePoset, Cname, EMPTY_NAME, Eq, Exists, ExplicitPoset,
    Family, FlatPoset, Forall, Implies, InName, Member, Not, Or, OrdLT,
    RankLE, Var, check_name, fn_omega_omega, gamma_name, inj_omega_omega,
    nat,
)


def build_poset(spec):
    kind = spec[0]
    if kind == "explicit":
        _, elements, pairs = spec
        return ExplicitPoset(list(elements) + ["one"],
                             list(pairs) + [(e, "one") for e in elements],
                             "one")
    if kind == "flat":
        _, labels, values = spec
        return FlatPoset(Family([(lab, [nat(v)])
                                 for lab, v in zip(labels, values)]))
    if kind == "tree":
        return BinaryTreePoset(spec[1])
    if kind == "fn":
        return fn_omega_omega(spec[1], spec[2])
    if kind == "inj":
        return inj_omega_omega(spec[1], spec[2])
    raise ValueError(f"unknown poset spec {spec!r}")


def build_term(spec, poset, gamma):
    kind = spec[0]
    if kind == "var":
        return Var(spec[1])
    if kind == "check":
        return Cname(check_name(nat(spec[1])))
    if kind == "cond":
        conds = poset.conditions()
        cond = conds[spec[1] % len(conds)]
        return Cname(check_name(poset.condition_hf(cond)))
    if kind == "gamma":
        return Cname(gamma)
    if kind == "empty":
        return Cname(EMPTY_NAME)
    raise ValueError(f"unknown term spec {spec!r}")


def build_formula(spec, poset):
    gamma = gamma_name(poset)

    def term(t):
        return build_term(t, poset, gamma)

    def go(f):
        kind = f[0]
        if kind == "in":
            return Member(term(f[1]), term(f[2]))
        if kind == "eq":
            return Eq(term(f[1]), term(f[2]))
        if kind == "not":
            return Not(go(f[1]))
        if kind in ("and", "or", "imp"):
            cls = {"and": And, "or": Or, "imp": Implies}[kind]
            return cls(go(f[1]), go(f[2]))
        if kind in ("ex", "all"):
            _, var, bound, body = f
            if bound[0] == "in":
                b = InName(term(bound[1]).name)
            elif bound[0] == "ord":
                b = OrdLT(bound[1])
            else:
                b = RankLE(bound[1])
            return (Exists if kind == "ex" else Forall)(var, b, go(body))
        raise ValueError(f"unknown formula spec {f!r}")

    return go(spec)



class Mismatch(Exception):
    """An operation returned a wrong or disagreeing answer."""
