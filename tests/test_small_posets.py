"""Both forcing routes certified on every small poset, not on a seeded
battery: every poset on 1 to 4 elements up to isomorphism, each with a top
added, and every formula of a systematic family, at every condition; the
base of that family against the brute-force oracle of ``test_forcing``; the
rank-bounded quantifiers and witness search over each poset's name space;
name spaces over two rank levels against brute force; mixing and
least-ordinal names at every condition; the maximum principle, mixing
witnesses along the minimal conditions below each condition; and the
symmetry lemma, each poset's automorphisms acting on names and formulas."""

import itertools
import time

import pytest

from forcelab import (
    And, Cname, EMPTY_NAME, Eq, Exists, ExplicitPoset, Family, FlatPoset,
    Forall, Implies, InName, Member, NameSpace, Not, NotMaximalBelow, ONE, Or,
    OrdLT, PName, PreconditionViolated, RankLE, Var, all_choice_functions,
    antichain_from_choice, check_name, choice_from_antichain, eval_name,
    extract_choice_flat, forces_semantic, forces_syntactic, gamma_name,
    is_maximal_antichain, least_ordinal_name, mix, mp_witness_search, nat,
    subst, theta_family,
)
from forcelab.formulas import _Formula
from forcelab.forcing import _forcer
from forcelab.posets import _bits

from test_forcing import boolean_value, filter_at, reference_sat


def forces_sem(f, i, phi):
    """The semantic route's answer at the condition numbered i, through
    the forcer f that forces_semantic uses."""
    return not f.k.down[i] & f.k.minimal & ~f.truth(phi)


def forces_syn(f, i, phi):
    """The syntactic route's answer at the condition numbered i, through
    the forcer f that forces_syntactic uses."""
    return bool(f.forcing(phi) >> i & 1)


def both_routes(poset, space, i, phi):
    """Both routes' answers at the condition numbered i, through the forcer
    that forces_semantic and forces_syntactic use."""
    f = _forcer(poset, space, phi)
    return forces_sem(f, i, phi), forces_syn(f, i, phi)


# Posets on 1, 2, 3 and 4 elements up to isomorphism (OEIS A000112).
POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16}


def strict_orders(n):
    """One strict order on range(n), as a set of (below, above) pairs, per
    isomorphism class."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    seen = set()
    for bits in range(1 << len(cells)):
        lt = {c for k, c in enumerate(cells) if bits >> k & 1}
        if any((j, i) in lt for i, j in lt):
            continue
        if any((i, l) not in lt
               for i, j in lt for k, l in lt if j == k):
            continue
        canon = min(tuple(sorted((perm[i], perm[j]) for i, j in lt))
                    for perm in itertools.permutations(range(n)))
        if canon not in seen:
            seen.add(canon)
            yield lt


def small_posets():
    for n, count in POSET_COUNTS.items():
        orders = list(strict_orders(n))
        assert len(orders) == count, n
        for lt in orders:
            elements = [f"e{i}" for i in range(n)]
            pairs = [(f"e{i}", f"e{j}") for i, j in lt]
            pairs += [(e, "1") for e in elements]
            yield ExplicitPoset(elements + ["1"], pairs, "1")


def base_battery(poset):
    """Four names (0, 1-check, gamma and a two-entry mixed name), the 32
    atoms over them and the 8 InName-quantified formulas over them."""
    conds = poset.conditions()
    gamma = gamma_name(poset)
    one = check_name(nat(1))
    mixed = PName([(conds[0], EMPTY_NAME), (conds[1], one)])
    names = [EMPTY_NAME, one, gamma, mixed]
    terms = [Cname(n) for n in names]
    base = [kind(a, b) for kind in (Member, Eq) for a in terms for b in terms]
    base += [q("x", InName(n), Member(Var("x"), Cname(gamma)))
             for q in (Exists, Forall) for n in names]
    return names, base


def battery(poset):
    """The base battery, its negations and every conjunction, disjunction
    and implication of two of its formulas; then two-variable nestings whose
    inner body mentions both variables, and one rebinding of a variable
    under its own quantifier."""
    names, base = base_battery(poset)
    one, gamma = names[1], names[2]
    x = Var("x")
    out = base + [Not(phi) for phi in base]
    out += [kind(a, b) for kind in (And, Or, Implies)
            for a in base for b in base]
    out += nestings(names)
    out.append(Exists("x", InName(gamma),
                      Exists("x", InName(one), Member(x, Cname(gamma)))))
    return out


def nestings(names):
    """The two-variable nestings of the battery over the base names: every
    pair of quantifiers and bounds around a body that mentions both
    variables."""
    gamma = names[2]
    x, y = Var("x"), Var("y")
    bounds = [InName(n) for n in names] + [OrdLT(2)]
    return [q1("x", b1, q2("y", b2, body))
            for q1, q2 in itertools.product((Exists, Forall), repeat=2)
            for b1, b2 in itertools.product(bounds, repeat=2)
            for body in (Member(y, x), Eq(x, y), Or(Member(x, y), Not(
                Member(y, Cname(gamma)))))]


def test_routes_agree_on_every_small_poset():
    # The routes are asked through the forcer that forces_semantic and
    # forces_syntactic use, by kernel index: the public entry points'
    # argument checks would take most of the time bound.
    start = time.monotonic()
    posets = list(small_posets())
    assert len(posets) == sum(POSET_COUNTS.values())
    checked = 0
    for poset in posets:
        conds = range(len(poset.conditions()))
        for phi in battery(poset):
            f = _forcer(poset, None, phi)
            for p in conds:
                assert forces_sem(f, p, phi) == forces_syn(f, p, phi), \
                    (poset.conditions(), phi, p)
            checked += len(conds)
    assert checked > 500_000
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_routes_match_the_boolean_valued_oracle_on_every_small_poset():
    # boolean_value computes ||phi|| by Jech's clauses on names, evaluating
    # no name along a filter, so it checks the quantifier and atom clauses
    # of both routes on the whole battery: p forces phi exactly when every
    # minimal condition below p lies in ||phi||.
    start = time.monotonic()
    checked = 0
    for poset in small_posets():
        k = poset.kernel()
        value = boolean_value(poset)
        conds = range(len(k.conds))
        for phi in battery(poset):
            b = value(phi)
            f = _forcer(poset, None, phi)
            for p in conds:
                want = not k.down[p] & k.minimal & ~b
                assert forces_sem(f, p, phi) is want, \
                    (poset.conditions(), phi, p)
                assert forces_syn(f, p, phi) is want, \
                    (poset.conditions(), phi, p)
            checked += len(conds)
    assert checked == 559_548
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def automorphisms(k):
    """Every order automorphism of a kernel's conditions but the identity,
    by brute force over ``down``: the index maps s that send each down-set
    onto the down-set of the image."""
    n = len(k.conds)
    for s in itertools.permutations(range(n)):
        if s != tuple(range(n)) and all(
                k.down[s[i]] == moved(k.down[i], s) for i in range(n)):
            yield s


def moved(mask, s):
    """The image of a mask of kernel indices under the index map s."""
    return sum(1 << s[j] for j in _bits(mask))


def act_on_name(k, s, tau, memo):
    """The name with every entry condition relabelled by s, hereditarily;
    ONE stays put."""
    out = memo.get(tau)
    if out is None:
        out = memo[tau] = PName(
            (c if c is ONE else k.conds[s[k.index[c]]],
             act_on_name(k, s, child, memo)) for c, child in tau.entries)
    return out


def act_on_formula(k, s, phi, memo):
    """The formula with the names of its ``Cname`` terms and ``InName``
    bounds relabelled by s."""
    if isinstance(phi, (Cname, InName)):
        return type(phi)(act_on_name(k, s, phi.name, memo))
    if isinstance(phi, _Formula):
        return type(phi)(*(act_on_formula(k, s, v, memo)
                           for v in phi._values()))
    return phi


def test_both_routes_obey_the_symmetry_lemma_on_every_small_poset():
    # An automorphism pi of the poset acts on names by relabelling their
    # entry conditions and on formulas through their names, and
    # p forces phi exactly when pi(p) forces pi(phi): each route's mask of
    # the conditions forcing pi(phi) is the image of its mask for phi.
    start = time.monotonic()
    posets = autos = checked = 0
    for poset in small_posets():
        k = poset.kernel()
        names, base = base_battery(poset)
        formulas = base + [Not(phi) for phi in base] + nestings(names)
        maps = list(automorphisms(k))
        posets += bool(maps)
        autos += len(maps)

        def masks(phi):
            f = _forcer(poset, None, phi)
            truth = f.truth(phi)
            sem = sum(1 << p for p in range(len(k.conds))
                      if not k.down[p] & k.minimal & ~truth)
            return sem, f.forcing(phi)

        mine = [masks(phi) for phi in formulas] if maps else []
        for s in maps:
            memo = {}
            for phi, got in zip(formulas, mine):
                image = act_on_formula(k, s, phi, memo)
                want = tuple(moved(m, s) for m in got)
                assert masks(image) == want, (poset.conditions(), s, phi)
                checked += 2 * len(k.conds)
    assert (posets, autos, checked) == (15, 51, 186_960)
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, f"took {elapsed:.1f}s"


def test_boolean_valued_maximum_principle_on_every_small_poset():
    # Lemma 14.19 in the Boolean-valued model: for each exists-x-in-S phi of
    # the battery, with b = ||exists x in S phi||, each minimal condition a
    # in b takes the first entry (c, sigma) of S in canonical order with a
    # below c and in ||phi(sigma)||, and every other minimal condition the
    # empty name.  The minimal conditions form a maximal antichain that
    # nobody has to choose, and the mixed tau must have
    # ||tau in S and phi(tau)|| = b.  An OrdLT(n) bound's S is n-check.
    start = time.monotonic()
    cases = 0
    for poset in small_posets():
        k = poset.kernel()
        value = boolean_value(poset)
        minimal = [k.conds[a] for a in k.minimals]
        for phi in battery(poset):
            if not isinstance(phi, Exists):
                continue
            bound = phi.bound.name if isinstance(phi.bound, InName) \
                else check_name(nat(phi.bound.bound))
            b = value(phi)
            witness = dict.fromkeys(minimal, EMPTY_NAME)
            for a, cond in zip(k.minimals, minimal):
                if b >> a & 1:
                    witness[cond] = next(
                        sigma for c, sigma in bound.sorted_entries()
                        if poset.le(cond, c)
                        and value(phi.body, {phi.var: sigma}) >> a & 1)
            tau = mix(poset, ONE, minimal, witness)
            assert value(And(Member(Var(phi.var), Cname(bound)), phi.body),
                         {phi.var: tau}) == b, (poset.conditions(), phi)
            cases += 1
    assert cases == 3720
    elapsed = time.monotonic() - start
    assert elapsed < 3.0, f"took {elapsed:.1f}s"


def test_base_battery_matches_the_reference_oracle():
    # reference_sat evaluates names and quantifier ranges along a filter by
    # brute force and shares nothing with the routes.  A condition forces a
    # formula by either route exactly when the formula holds along every
    # generic filter through the condition; at a minimal a that is the
    # generic filter at a alone, so the semantic route's bit a of [[phi]]
    # is the oracle's answer along that filter.
    start = time.monotonic()
    checked = 0
    for poset in small_posets():
        k = poset.kernel()
        _, base = base_battery(poset)
        for phi in base + [Not(phi) for phi in base]:
            along = {a: reference_sat(phi, filter_at(k, a), None)
                     for a in k.minimals}
            for i, p in enumerate(k.conds):
                want = all(along[a] for a in k.minimals if k.down[i] >> a & 1)
                assert forces_semantic(poset, p, phi) is want, (p, phi)
                assert forces_syntactic(poset, p, phi) is want, (p, phi)
                checked += 1
    assert checked == 80 * 108  # 80 formulas, 108 conditions
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, f"took {elapsed:.1f}s"


def closure_of(names):
    """Every name reachable from the given ones through entries."""
    out, stack = set(), list(names)
    while stack:
        n = stack.pop()
        if n not in out:
            out.add(n)
            stack.extend(child for _, child in n.entries)
    return out


def first_of_each_class(poset, bases, rank_bound):
    """The universe of NameSpace(poset, bases, rank_bound), by brute force:
    the least name in canonical order (PName.key) of each class of names
    with equal values along every filter, among the closure of the bases
    and every name of rank at most the bound assembled from (condition,
    child) entries, children drawn from that closure below the bound and
    the top written as ONE; then the children of those names."""
    k = poset.kernel()
    closure = closure_of(bases)
    entries = [(c, s) for c in [ONE] + [c for c in poset.conditions()
                                        if c != poset.top]
               for s in closure if s.rank < rank_bound]
    candidates = closure | {
        PName(combo) for size in range(len(entries) + 1)
        for combo in itertools.combinations(entries, size)}
    # Every child of a candidate lies in the closure, so a candidate's value
    # along a filter is fixed by the set of the values there of the children
    # of its entries in the filter, each child evaluated once per filter
    # (eval_name memoizes within one call only).
    filters = [filter_at(k, i) for i in range(len(k.conds))]
    along = {s: [eval_name(s, f) for f in filters] for s in closure}
    inside = [{ONE, *f.conditions} for f in filters]
    first = {}
    for tau in sorted(candidates, key=PName.key):
        first.setdefault(tuple(frozenset(along[s][i] for c, s in tau.entries
                                         if c in inside[i])
                               for i in range(len(filters))), tau)
    return sorted(closure_of(first.values()), key=PName.key)


def test_rank_bounded_quantifiers_on_every_small_poset():
    # Over NameSpace(poset, (0, 1-check), 1), whose universe is first
    # checked against brute force: [rank <= 1] quantifiers over
    # every atom between the bound variable and 0, 1-check and gamma, both
    # ways round, by both routes at every condition; and a witness search
    # for every member of the space and for gamma, at every condition,
    # against the first member with the target's values along the generic
    # filters below the condition, found by direct evaluation.
    start = time.monotonic()
    v = Var("v")
    searches = 0
    for poset in small_posets():
        gamma = gamma_name(poset)
        space = NameSpace(poset, (EMPTY_NAME, check_name(nat(1))), 1)
        atoms = [kind(a, b) for t in (EMPTY_NAME, check_name(nat(1)), gamma)
                 for kind in (Member, Eq) for a, b in ((v, Cname(t)),
                                                      (Cname(t), v))]
        for phi in [q("v", RankLE(1), a) for q in (Exists, Forall)
                    for a in atoms]:
            for p in poset.conditions():
                assert forces_semantic(poset, p, phi, space) == \
                    forces_syntactic(poset, p, phi, space), (phi, p)
        k = poset.kernel()
        assert list(space.universe) == \
            first_of_each_class(poset, space.base_names, 1)
        for i, p in enumerate(k.conds):
            filters = [filter_at(k, a) for a in k.minimals
                       if k.down[i] >> a & 1]
            values = {tau: [eval_name(tau, f) for f in filters]
                      for tau in space.universe}
            for target in (*space.universe, gamma):
                want = [eval_name(target, f) for f in filters]
                first = next((tau for tau in space.universe
                              if values[tau] == want), None)
                assert mp_witness_search(poset, p, Eq(v, Cname(target)),
                                         space) is first, (p, target)
                searches += 1
    assert searches > 1000
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, f"took {elapsed:.1f}s"


def test_rank_two_spaces_match_brute_force_on_every_small_poset():
    # At rank 2 the space walks two rank levels: first the names with 0 as
    # every child, then those with 1-check among them too.  Each space must
    # be its brute-force universe, name for name and in order.  The bases
    # (0, gamma) add closure names that are not check-names and have no
    # assembled member in their class; (0, mu), with mu the rank-1 name
    # {(e0, 0)}, makes a child that is not a check-name, whose values along
    # the filters through each condition are evaluated.  Only the library
    # is timed: the brute-force oracle takes almost all the test's time.
    elapsed = 0.0
    spaces = 0
    for poset in small_posets():
        e0 = poset.conditions()[0]
        for bases in ((EMPTY_NAME, check_name(nat(1))),
                      (EMPTY_NAME, gamma_name(poset)),
                      (EMPTY_NAME, PName([(e0, EMPTY_NAME)]))):
            start = time.monotonic()
            universe = NameSpace(poset, bases, 2).universe
            elapsed += time.monotonic() - start
            assert list(universe) == first_of_each_class(poset, bases, 2), \
                (poset.conditions(), bases)
            spaces += 1
    assert spaces == 3 * sum(POSET_COUNTS.values())
    assert elapsed < 0.5, f"took {elapsed:.2f}s"


def maximal_antichains_below(poset, p):
    """Every maximal antichain below p, by brute force over the public
    order and compatibility."""
    below = [q for q in poset.conditions() if poset.le(q, p)]
    for size in range(1, len(below) + 1):
        for members in itertools.combinations(below, size):
            if not any(poset.compatible(a, b)
                       for a, b in itertools.combinations(members, 2)) \
                    and all(any(poset.compatible(q, a) for a in members)
                            for q in below):
                yield members


def test_mix_and_least_ordinal_name_on_every_small_poset():
    # At every condition p, with the names 0, 1-check, gamma and a name
    # mixed by hand: each assignment of them along each maximal antichain
    # below p mixes to a name that every member forces equal to its own
    # name, by both routes.  For theta(x) = x in s with s among them and
    # kappa = 3, least_ordinal_name refuses exactly when a generic filter
    # below p has no beta < 3 in s; otherwise p forces theta of its name by
    # both routes, and the name takes the least such beta along every
    # generic filter below p.
    start = time.monotonic()
    x = Var("x")
    one = check_name(nat(1))
    mixes = names = refusals = 0
    for poset in small_posets():
        k = poset.kernel()
        conds = poset.conditions()
        pool = [EMPTY_NAME, one, gamma_name(poset),
                PName([(conds[0], EMPTY_NAME), (conds[1], one)])]
        for i, p in enumerate(k.conds):
            for members in maximal_antichains_below(poset, p):
                for chosen in itertools.product(pool, repeat=len(members)):
                    mixed = mix(poset, p, members, dict(zip(members, chosen)))
                    mixes += 1
                    for r, tau in zip(members, chosen):
                        phi = Eq(Cname(mixed), Cname(tau))
                        j = poset.index_of(r)
                        assert both_routes(poset, None, j, phi) == \
                            (True, True), (conds, p, members, r)
            filters = [filter_at(k, a) for a in k.minimals
                       if k.down[i] >> a & 1]
            for s in pool:
                theta = Member(x, Cname(s))
                least = [next((beta for beta in range(3)
                               if nat(beta) in eval_name(s, g)), None)
                         for g in filters]
                if None in least:
                    with pytest.raises(PreconditionViolated):
                        least_ordinal_name(poset, p, 3, theta)
                    refusals += 1
                    continue
                tau = least_ordinal_name(poset, p, 3, theta)
                names += 1
                phi = Member(Cname(tau), Cname(s))
                assert both_routes(poset, None, i, phi) == (True, True), \
                    (p, s)
                assert [eval_name(tau, g) for g in filters] == \
                    [nat(beta) for beta in least], (conds, p, s)
    assert (mixes, names, refusals) == (1864, 292, 140)
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, f"took {elapsed:.1f}s"


def test_mix_refuses_exactly_what_is_no_maximal_antichain_below_p():
    # At every condition p, every nonempty set of conditions, listed in
    # canonical order: mix accepts it exactly when it is a maximal
    # antichain below p by brute force over the public order, and refuses
    # it otherwise with not-maximal-below-p and the first fault that brute
    # force finds: a member that does not extend p, then two compatible
    # members, then the least condition below p compatible with no member.
    # At the top, is_maximal_antichain gives mix's answer.
    start = time.monotonic()
    accepted = refused = 0
    for poset in small_posets():
        conds = poset.conditions()
        show, le, comp = poset.condition_repr, poset.le, poset.compatible
        for p in conds:
            maximal = set(maximal_antichains_below(poset, p))
            below = [q for q in conds if le(q, p)]
            for size in range(1, len(conds) + 1):
                for members in itertools.combinations(conds, size):
                    stray = [r for r in members if not le(r, p)]
                    lonely = [q for q in below
                              if not any(comp(q, r) for r in members)]
                    if stray:
                        why = f"{show(stray[0])} does not extend {show(p)}"
                    elif any(comp(a, b) for a, b
                             in itertools.combinations(members, 2)):
                        why = "antichain members are compatible"
                    elif lonely:
                        why = ("nothing in the antichain is compatible with "
                               f"{show(lonely[0])}")
                    else:
                        why = None
                    assert (why is None) is (members in maximal)
                    try:
                        mix(poset, p, members,
                            dict.fromkeys(members, EMPTY_NAME))
                        got = None
                        accepted += 1
                    except NotMaximalBelow as e:
                        assert e.code == "not-maximal-below-p"
                        got = str(e)
                        refused += 1
                    assert got == why, (conds, p, members)
                    if p == poset.top:
                        assert is_maximal_antichain(poset, members) is \
                            (why is None), (conds, members)
    assert (accepted, refused) == (223, 2605)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.1f}s"


def test_maximum_principle_on_every_small_poset():
    # Jech, Set Theory, Lemma 14.19 ("V^B is full"): if p forces
    # exists x in S phi(x), then p forces phi(tau) and tau in S for some
    # name tau.  The proof picks a maximal antichain below p whose members
    # each force phi of some member of S, and mixes those witnesses along
    # it.  In general, choosing that antichain is the step that needs the
    # axiom of choice.  A finite poset needs none: the minimal conditions
    # below p form a maximal antichain below p that nobody has to choose,
    # since every condition below p extends one of them and two of them
    # are compatible only if equal.  Each member a is in the generic filter
    # at a, along which phi holds of some sigma with an entry (c, sigma) of
    # S and a below c, so a forces phi(sigma) and gets the first such
    # sigma in S's canonical order.  An OrdLT(n) bound ranges over the
    # entries of the check-name of n.  For every existential formula of
    # the battery and every condition p forcing it, the mixed tau must
    # pass, at p, by both routes.
    start = time.monotonic()
    cases = 0
    for poset in small_posets():
        k = poset.kernel()
        for phi in battery(poset):
            if not isinstance(phi, Exists):
                continue
            bound = phi.bound.name if isinstance(phi.bound, InName) \
                else check_name(nat(phi.bound.bound))
            for i, p in enumerate(k.conds):
                if not forces_semantic(poset, p, phi):
                    continue
                antichain = [k.conds[a] for a in k.minimals
                             if k.down[i] >> a & 1]
                witness = {a: next(
                    sigma for c, sigma in bound.sorted_entries()
                    if poset.le(a, c) and forces_semantic(
                        poset, a, subst(phi.body, phi.var, sigma)))
                    for a in antichain}
                tau = mix(poset, p, antichain, witness)
                for psi in (subst(phi.body, phi.var, tau),
                            Member(Cname(tau), Cname(bound))):
                    assert forces_semantic(poset, p, psi), (p, phi)
                    assert forces_syntactic(poset, p, psi), (p, phi)
                cases += 1
    assert cases == 6286
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_maximum_principle_for_rank_bounds_on_every_small_poset():
    # Lemma 14.19 for a RankLE(k) bound, whose range is not given but comes
    # from the name space: if p forces exists x in RankLE(k) theta(x) over
    # a space of rank bound r >= k, the space holds a name of rank at most
    # k that p forces to satisfy theta, and mp_witness_search, which returns
    # the first forced name in canonical order (rank first), finds one.
    # The mix of witnesses along the minimal conditions below p has entries
    # (condition, child) with eligible children, so its class mask is an OR
    # of pair masks, which the walk meets, and the class's first member has
    # rank at most the mix's.  The bases are base_battery's four names, at
    # rank bounds 1 and 2, with every k <= r and theta among x in n, n in x and x = n for each base n, not
    # x in gamma, and x in gamma and not x = 1-check.
    start = time.monotonic()
    x = Var("x")
    cases = 0
    for poset in small_posets():
        names, _ = base_battery(poset)
        gamma, one = Cname(names[2]), Cname(names[1])
        thetas = [kind(a, b) for n in map(Cname, names)
                  for kind, a, b in ((Member, x, n), (Member, n, x),
                                     (Eq, x, n))]
        thetas += [Not(Member(x, gamma)),
                   And(Member(x, gamma), Not(Eq(x, one)))]
        for r in (1, 2):
            space = NameSpace(poset, names, r)
            for k in range(r + 1):
                for theta in thetas:
                    phi = Exists("x", RankLE(k), theta)
                    f = _forcer(poset, space, phi)
                    for i, p in enumerate(poset.conditions()):
                        if not forces_sem(f, i, phi):
                            continue
                        tau = mp_witness_search(poset, p, theta, space)
                        assert tau is not None and tau.rank <= k, (p, phi)
                        psi = subst(theta, "x", tau)
                        assert both_routes(poset, space, i, psi) == \
                            (True, True), (p, phi, tau)
                        cases += 1
    assert cases == 3431
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, f"took {elapsed:.1f}s"


def value_families():
    """Every family that assigns the values 0, 1 and 2 to 1 to 3 nonempty
    blocks labelled a, b and c: 1 + 6 + 6 = 13 families."""
    values = (nat(0), nat(1), nat(2))
    for m in (1, 2, 3):
        for assign in itertools.product(range(m), repeat=len(values)):
            if set(assign) == set(range(m)):
                yield Family([(lab, [v for v, j in zip(values, assign)
                                     if j == block])
                              for block, lab in enumerate("abc"[:m])])


def test_a_maximum_principle_witness_over_a_flat_poset_is_a_choice_function():
    # The paper's question: does Lemma 14.19 need the axiom of choice?  Over
    # the flat poset of a family F, whose conditions below the top are the
    # block labels, the top forces "some x of rank at most r lies in the
    # generic block" (theta_family), so the maximum principle gives a
    # witness, and extract_choice_flat reads a choice function for F off
    # it by one definable map: no choice is made.  Conversely, the forced
    # witnesses of the space give every choice function of F.  The space's
    # bases are the values' check-names, at one rank above theirs.
    #
    # mp_witness_search returns the first forced name in the universe's
    # canonical order (rank, then size, then entries), and that is what is
    # pinned: in 2 families its choice function is not the one least by
    # its values' keys.
    #
    # The proof's first step, run over the choice poset's antichains
    # (criterion 2): antichain_from_choice places the element chosen from
    # each block at a level; each label forces theta of the check-name of
    # its block's element, and mixing those witnesses along the labels, a
    # maximal antichain below the top that nobody has to choose, gives a
    # name that the top forces to select from the generic block and that
    # extracts to the antichain's choice function.  About 0.7 s here.
    start = time.monotonic()
    families = list(value_families())
    assert len(families) == 13
    not_least = 0
    for family in families:
        flat = FlatPoset(family)
        theta = theta_family(flat)
        bases = [check_name(v) for lab in family.labels
                 for v in family.blocks[lab]]
        r = 1 + max(b.rank for b in bases)
        space = NameSpace(flat, bases, r)
        phi = Exists("x", RankLE(r), theta)
        assert forces_semantic(flat, ONE, phi, space), family.labels
        assert forces_syntactic(flat, ONE, phi, space), family.labels
        forced = [tau for tau in space.universe
                  if forces_semantic(flat, ONE, subst(theta, "x", tau))]
        witness = mp_witness_search(flat, ONE, theta, space)
        assert witness is forced[0]
        psi = subst(theta, "x", witness)
        assert forces_syntactic(flat, ONE, psi)
        choices = all_choice_functions(family)
        pick = extract_choice_flat(witness, flat)
        not_least += pick != min(
            choices, key=lambda f: tuple(v.key() for _, v in f.items()))
        assert {extract_choice_flat(tau, flat) for tau in forced} == \
            set(choices), family.labels
        for f in choices:
            for levels in itertools.product((0, 1), repeat=len(f.items())):
                antichain = antichain_from_choice(
                    f, dict(zip(family.labels, levels)))
                assert choice_from_antichain(family, antichain) == f
                members = {family.block_of(v): check_name(v)
                           for _, v in antichain}
                for lab, sigma in members.items():
                    assert forces_semantic(flat, lab, subst(theta, "x", sigma))
                mixed = mix(flat, ONE, list(members), members)
                psi = subst(theta, "x", mixed)
                assert forces_semantic(flat, ONE, psi), (f, levels)
                assert forces_syntactic(flat, ONE, psi), (f, levels)
                assert extract_choice_flat(mixed, flat) == f
    assert not_least == 2
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_shadowed_variable():
    # Inside the rebinding x ranges over 1-check = {0}, so x in gamma holds
    # exactly where the condition numbered 0 is in the generic filter; once
    # the rebinding ends, x is the outer variable again, and gamma also has
    # the top's number, 2, so not every x in gamma is 0.
    # Each formula is asked on a fresh poset, with nothing memoized.
    def vee():
        return ExplicitPoset(["a", "b", "1"], [("a", "1"), ("b", "1")], "1")

    gamma = Cname(gamma_name(vee()))
    x = Var("x")
    inner = Exists("x", InName(check_name(nat(1))), Member(x, gamma))
    for phi, answers in (
            (Exists("x", InName(gamma.name), inner), (True, False, False)),
            (Forall("x", InName(gamma.name),
                    And(inner, Eq(x, Cname(check_name(nat(0)))))),
             (False, False, False))):
        poset = vee()
        for p, want in zip(("a", "b", "1"), answers):
            assert forces_semantic(poset, p, phi) is want, (phi, p)
            assert forces_syntactic(poset, p, phi) is want, (phi, p)


def rank_spaces():
    """(poset, bases, rank bound) for base_battery's names at rank bounds 1
    and 2."""
    for poset in small_posets():
        names, _ = base_battery(poset)
        for r in (1, 2):
            yield poset, names, r


def test_lazy_universe_is_the_same_whatever_is_read_first():
    # A space interns its names only as far as a reader reaches, and runs
    # its walk only when a reader asks past ∅.  Whatever is read first
    # (len, names_of_rank_le, the universe, in, or a route or a witness
    # search that stops early, at ∅ or later), each RankLE(k) range the
    # routes share yields exactly the universe's prefix of rank at most k,
    # as does names_of_rank_le(k), and the universe is the one read first
    # on a fresh space.  Two readers nest one range in another: for x = y
    # each inner range stops at x's own class, and for x in y the inner
    # range runs the walk from inside the outer one, at ∅, and interns
    # names past the outer reader's position; there both routes answer,
    # on a fresh space, as over one whose universe was read first.
    start = time.monotonic()
    x, y = Var("x"), Var("y")
    at_empty = Exists("x", RankLE(0), Eq(x, Cname(EMPTY_NAME)))
    spaces = 0
    for poset, names, r in rank_spaces():
        phi = Exists("x", RankLE(r), Member(x, Cname(names[2])))
        each_equal, each_in = (
            Forall("x", RankLE(r), Exists("y", RankLE(r), atom(x, y)))
            for atom in (Eq, Member))
        read = NameSpace(poset, names, r)
        eager = read.universe
        assert both_routes(poset, NameSpace(poset, names, r), 0, each_in) \
            == both_routes(poset, read, 0, each_in), (poset, r)
        for first in (len, lambda s: s.names_of_rank_le(0),
                      lambda s: s.universe,
                      lambda s: eager[len(eager) // 2] in s,
                      lambda s: EMPTY_NAME in s,
                      lambda s: both_routes(poset, s, 0, phi)[0],
                      lambda s: both_routes(poset, s, 0, phi)[1],
                      lambda s: both_routes(poset, s, 0, at_empty)[0],
                      lambda s: both_routes(poset, s, 0, at_empty)[1],
                      lambda s: mp_witness_search(
                          poset, poset.conditions()[0], at_empty.body, s),
                      lambda s: both_routes(poset, s, 0, each_equal),
                      lambda s: both_routes(poset, s, 0, each_in)):
            space = NameSpace(poset, names, r)
            first(space)
            f = _forcer(poset, space, phi)
            ranges = {k: tuple(sig for _, sig in f._range(RankLE(k)))
                      for k in range(r, -1, -1)}
            prefixes = {k: space.names_of_rank_le(k) for k in ranges}
            assert len(space) == len(eager)
            assert space.universe == eager, (poset.conditions(), r)
            for k in ranges:
                want = tuple(n for n in eager if n.rank <= k)
                assert ranges[k] == prefixes[k] == want, (poset, r, k)
        spaces += 1
    assert spaces == 48
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, f"took {elapsed:.1f}s"


def test_constants_of_classes_not_yet_interned_answer_alike():
    # A constant equal to a class that a space has not interned yet reads
    # its value off the kernel, and once the space interns that class, off
    # its class mask.  Either way both routes and the witness search must
    # answer as over a space whose universe was read before the constant
    # was first asked about.
    start = time.monotonic()
    x = Var("x")
    cases = 0
    for poset, names, r in rank_spaces():
        eager = NameSpace(poset, names, r).universe
        constants = (eager[len(eager) // 2], eager[-1], names[3])
        thetas = [kind(a, b) for c in map(Cname, constants)
                  for kind, a, b in ((Eq, x, c), (Member, c, x),
                                     (Member, x, c))]
        answers = []
        for read_first in (False, True):
            space = NameSpace(poset, names, r)
            if read_first:
                space.universe
            answers.append([
                (*both_routes(poset, space, i, Exists("x", RankLE(r), theta)),
                 mp_witness_search(poset, p, theta, space))
                for theta in thetas
                for i, p in enumerate(poset.conditions())])
        assert answers[0] == answers[1], (poset.conditions(), r)
        cases += len(answers[0])
    assert cases == 1944
    elapsed = time.monotonic() - start
    assert elapsed < 3.0, f"took {elapsed:.1f}s"
