"""Acceptance suite: ten package-level guarantees, one test per criterion.

Each test prints one ``criterion N: PASS`` line on success (visible under
``pytest -s``); with ``pytest -v`` the per-test PASSED/FAILED line is the
pass/fail record for that criterion.
"""

import itertools
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from forcelab import (
    And, Assignment, Chain, ChoicePoset, Cname, CohenGridPoset,
    ColumnCollision, EMPTY_NAME, Eq, Exists, ExplicitPoset, Family,
    FlatPoset, Forall, HF, Implies, InName, InjPoset, Member, NameSpace,
    Not, ONE, Or, OrdLT, Perm, RankLE, Var, act_name, all_choice_functions,
    antichain_from_choice, build_witness_flat, check_name,
    choice_from_antichain, decompose,
    enumerate_maximal_antichains, eval_name, extract_choice_flat,
    forces_semantic, forces_syntactic, g1_to_g, g_to_g1, gamma_name,
    generic_filter, hat_map, least_ordinal_name, mix, nat, parse_scenario,
    PName, r_sigma_name, sigma_conjugate, single_free_var, subst,
    theta_family, transposition, xcheckcheck_name, xdot_name,
)

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# criterion 1: the two forcing routes agree


def battery_posets():
    fam3 = Family([("a", [nat(0)]), ("b", [nat(1)]), ("c", [nat(2)])])
    return [
        FlatPoset(fam3),
        ExplicitPoset(["p", "q", "one"],
                      [("p", "one"), ("q", "one")], "one"),
        ExplicitPoset(["p", "q", "r", "one"],
                      [("p", "q"), ("q", "one"), ("r", "one")], "one"),
        ExplicitPoset(["a", "b", "c", "one"],
                      [("a", "b"), ("a", "c"), ("b", "one"), ("c", "one")],
                      "one"),
        ExplicitPoset(["x", "y", "z", "w", "one"],
                      [("x", "y"), ("y", "one"), ("z", "w"), ("w", "one")],
                      "one"),
        ExplicitPoset(["p", "one"], [("p", "one")], "one"),
    ]


def formula_battery(poset):
    gamma = Cname(gamma_name(poset))
    non_top = [c for c in poset.conditions() if c != poset.top]
    checks = [Cname(EMPTY_NAME), Cname(check_name(nat(1)))]
    checks += [Cname(check_name(poset.condition_hf(c))) for c in non_top[:2]]
    atoms = [Member(c, gamma) for c in checks]
    atoms += [
        Member(checks[0], checks[1]),
        Eq(checks[0], checks[1]),
        Eq(checks[-1], checks[-1]),
    ]
    out = list(atoms)
    out += [Not(a) for a in atoms]
    for a, b in zip(atoms, atoms[1:]):
        out += [And(a, b), Or(a, b), Implies(a, b)]
    for a, b in zip(atoms, atoms[2:]):
        out.append(Implies(Not(a), Or(b, And(a, b))))
    v, u = Var("v"), Var("u")
    out += [
        Exists("v", OrdLT(2), Member(v, gamma)),
        Forall("v", OrdLT(2), Or(Eq(v, checks[0]), Eq(v, checks[1]))),
        Exists("v", RankLE(1), Eq(v, checks[0])),
        Forall("v", RankLE(1),
               Implies(Eq(v, checks[0]), Member(v, checks[1]))),
        Exists("v", InName(check_name(nat(2))), Member(v, gamma)),
        Exists("v", OrdLT(2), Exists("u", OrdLT(2), Eq(v, u))),
        Forall("v", OrdLT(2),
               Exists("u", RankLE(1), Or(Eq(v, u), Member(u, v)))),
        Not(Exists("v", OrdLT(2), And(Member(v, gamma), Eq(v, checks[1])))),
    ]
    return list(dict.fromkeys(out))


def test_criterion_01_truth_lemma_agreement():
    start = time.monotonic()
    total = 0
    for poset in battery_posets():
        space = NameSpace(poset, [EMPTY_NAME, check_name(nat(1))], 2)
        formulas = formula_battery(poset)
        total += len(formulas)
        for phi in formulas:
            for c in poset.conditions():
                assert forces_semantic(poset, c, phi, space) == \
                    forces_syntactic(poset, c, phi, space), \
                    (poset, poset.condition_repr(c), phi)
    elapsed = time.monotonic() - start
    assert total >= 200, f"only {total} formulas generated"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"criterion 1: PASS ({total} formulas, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 2: antichain / choice-function correspondence with level tags


def brute_force_maximal_antichains(poset, block_count):
    """Exhaustive search over condition subsets, using only pairwise
    compatibility tests.  Subset size is capped at the block count: two
    conditions are compatible exactly when they share a block, so a larger
    set always repeats a block and fails the antichain test."""
    conds = poset.conditions()
    out = []
    for size in range(1, block_count + 1):
        for combo in itertools.combinations(conds, size):
            if any(poset.compatible(combo[i], combo[j])
                   for i in range(size) for j in range(i + 1, size)):
                continue
            if all(any(poset.compatible(c, a) for a in combo) for c in conds):
                out.append(frozenset(combo))
    return out


def test_criterion_02_antichain_choice_correspondence():
    fresh = 0
    for m in (1, 2, 3):
        for sizes in itertools.product((1, 2, 3), repeat=m):
            counter = itertools.count(fresh)
            blocks = [(f"b{i}", [nat(next(counter)) for _ in range(s)])
                      for i, s in enumerate(sizes)]
            family = Family(blocks)
            for level in (1, 2, 3):
                poset = ChoicePoset(family, level)
                enum = enumerate_maximal_antichains(poset)
                expected = 1
                for s in sizes:
                    expected *= level * s
                assert len(enum) == expected
                oracle = brute_force_maximal_antichains(poset, m)
                assert set(enum) == set(oracle)
                pairs = set()
                for antichain in enum:
                    f = choice_from_antichain(family, antichain)
                    levels = {family.block_of(x): lv for lv, x in antichain}
                    assert antichain_from_choice(f, levels) == antichain
                    pairs.add((f, tuple(levels[lab]
                                        for lab in family.labels)))
                want = {(f, lv)
                        for f in all_choice_functions(family)
                        for lv in itertools.product(range(level), repeat=m)}
                assert pairs == want
    print("criterion 2: PASS")


# ---------------------------------------------------------------------------
# criterion 3: choice functions extractable from forced witnesses


def test_criterion_03_witness_choice_extraction():
    one = HF([nat(0)])
    shapes = [
        [("a", [nat(0)])],
        [("a", [nat(0), nat(1)])],
        [("a", [nat(0)]), ("b", [nat(1)])],
        [("a", [nat(0)]), ("b", [nat(1), HF([one])])],
        [("a", [nat(0), nat(1)]), ("b", [nat(2)])],
        [("a", [nat(0), nat(1)]), ("b", [nat(2), HF([one])])],
    ]
    for blocks in shapes:
        family = Family(blocks)
        flat = FlatPoset(family)
        theta = theta_family(flat)
        var = single_free_var(theta)
        space = NameSpace(flat, [check_name(nat(1))], 2)
        extracted = set()
        for tau in space.universe:
            if forces_semantic(flat, ONE, subst(theta, var, tau)):
                extracted.add(extract_choice_flat(tau, flat))
        everything = set(all_choice_functions(family))
        assert extracted == everything, family
        for f in everything:
            built = build_witness_flat(f)
            assert extract_choice_flat(built, flat) == f
    print("criterion 3: PASS")


# ---------------------------------------------------------------------------
# criterion 4: mixing produces a single forced witness


HF_POOL = [nat(0), nat(1), nat(2), HF([nat(1)]), HF([nat(0), HF([nat(1)])])]


def random_flat(rng, labels=None):
    m = labels if labels is not None else rng.randrange(2, 5)
    return FlatPoset(Family([(f"l{i}", [nat(i)]) for i in range(m)]))


def test_criterion_04_mixing_forces_theta():
    rng = random.Random(40817)
    passes = 0
    for _ in range(100):
        if rng.random() < 0.7:
            poset = random_flat(rng)
            antichain = [c for c in poset.conditions() if c != poset.top]
        else:
            poset = ExplicitPoset(
                ["v1", "v2", "u1", "u2", "one"],
                [("v1", "u1"), ("v2", "u1"), ("u1", "one"), ("u2", "one")],
                "one")
            antichain = ["v1", "v2", "u2"]
        gamma = Cname(gamma_name(poset))
        x = Var("x")
        u, v = rng.sample(HF_POOL, 2)
        kind = rng.randrange(4)
        if kind == 0:
            theta = Member(x, gamma)
            assignment = {r: check_name(poset.condition_hf(r))
                          for r in antichain}
        elif kind == 1:
            theta = Eq(x, Cname(check_name(v)))
            assignment = {
                r: check_name(v) if rng.random() < 0.5
                else PName([(ONE, check_name(w)) for w in v])
                for r in antichain}
        elif kind == 2:
            theta = Or(Eq(x, Cname(check_name(u))),
                       Eq(x, Cname(check_name(v))))
            assignment = {r: check_name(rng.choice((u, v)))
                          for r in antichain}
        else:
            theta = Member(Cname(check_name(u)), x)
            assignment = {
                r: PName([(ONE, check_name(u)),
                          (r, check_name(rng.choice(HF_POOL)))])
                for r in antichain}
        assert all(forces_semantic(poset, r, subst(theta, "x", assignment[r]))
                   for r in antichain)
        mixed = mix(poset, ONE, antichain, assignment)
        if forces_semantic(poset, ONE, subst(theta, "x", mixed)):
            passes += 1
    assert passes == 100
    print("criterion 4: PASS (100/100)")


# ---------------------------------------------------------------------------
# criterion 5: the least-ordinal name forces its defining formula


def test_criterion_05_least_ordinal_forces_theta():
    rng = random.Random(50817)
    passes = 0
    for _ in range(100):
        m = rng.randrange(2, 4)
        poset = random_flat(rng, labels=m)
        kappa = m + 1
        gamma = Cname(gamma_name(poset))
        al = Var("al")
        labels = [c for c in poset.conditions() if c != poset.top]
        per_label = {j: [m] for j in range(m)}
        disjuncts = []
        for _ in range(rng.randrange(1, 2 * m + 1)):
            o = rng.randrange(0, m + 1)
            j = rng.randrange(m)
            per_label[j].append(o)
            disjuncts.append(
                And(Eq(al, Cname(check_name(nat(o)))),
                    Member(Cname(check_name(nat(j))), gamma)))
        theta = disjuncts[0]
        for d in disjuncts[1:] + [Eq(al, Cname(check_name(nat(m))))]:
            theta = Or(theta, d)
        lam = least_ordinal_name(poset, ONE, kappa, theta)
        forced = forces_semantic(poset, ONE, subst(theta, "al", lam)) and \
            forces_syntactic(poset, ONE, subst(theta, "al", lam))
        evals_ok = all(
            eval_name(lam, generic_filter(poset, lab)) ==
            nat(min(per_label[j]))
            for j, lab in enumerate(labels))
        if forced and evals_ok:
            passes += 1
    assert passes == 100
    print("criterion 5: PASS (100/100)")


# ---------------------------------------------------------------------------
# criterion 6: splitting a permutation at a column cutoff


def random_perm_fixing(rng, n):
    """Cycles over [n, 30) plus up to two infinite chains in high bands with
    tails in distinct residue classes mod 4, so all parts stay disjoint."""
    pool = list(range(n, 30))
    rng.shuffle(pool)
    cycles = []
    idx = 0
    for _ in range(rng.randrange(0, 5)):
        ln = rng.randrange(2, 7)
        if idx + ln > len(pool):
            break
        cycles.append(tuple(pool[idx:idx + ln]))
        idx += ln
    chains = []
    n_chains = rng.randrange(0, 3)
    if n_chains >= 1:
        window = rng.sample(range(40, 80), rng.randrange(2, 6))
        chains.append(Chain(0, tuple(window), (4, 81), (4, 82)))
    if n_chains >= 2:
        allowed = [x for x in range(120, 160) if x % 4 in (0, 3)]
        window = rng.sample(allowed, rng.randrange(2, 6))
        chains.append(Chain(0, tuple(window), (4, 163), (4, 164)))
    return Perm(cycles, chains)


def test_criterion_06_decompose_splits_at_cutoff():
    rng = random.Random(60817)
    passes = 0
    for _ in range(100):
        n = rng.randrange(0, 10)
        k = rng.randrange(n + 1, 11)
        perm = random_perm_fixing(rng, n)
        first, second = decompose(perm, n, k)
        ok = first.in_Hn(n) and second.fixes_below(k) and all(
            perm.apply(m) == first.apply(second.apply(m))
            for m in range(101))
        if ok:
            passes += 1
    assert passes == 100
    print("criterion 6: PASS (100/100)")


# ---------------------------------------------------------------------------
# criterion 7: grid-to-injection filter round trip and the hat map


def bounded_name_family(grid):
    """Names with at most two entries over single-cell conditions and the
    column/check base names; stands in for the rank-bounded name space."""
    conds = [ONE, frozenset({((0, 0), 1)}), frozenset({((1, 1), 1)})]
    children = [EMPTY_NAME, check_name(nat(1))]
    children += [xdot_name(grid, c) for c in range(grid.cols)]
    pairs = [(c, ch) for c in conds for ch in children]
    names = [EMPTY_NAME]
    names += [PName([p]) for p in pairs]
    names += [PName(combo) for combo in itertools.combinations(pairs, 2)]
    return names


def test_criterion_07_two_poset_round_trip_and_hat():
    for cols, rows in ((2, 2), (3, 2)):
        grid = CohenGridPoset(cols, rows)
        names = bounded_name_family(grid)
        distinct = 0
        for bits in itertools.product((0, 1), repeat=cols * rows):
            asg = Assignment(grid, bits)
            if not asg.has_distinct_columns():
                with pytest.raises(ColumnCollision):
                    g_to_g1(asg)
                continue
            distinct += 1
            g1 = g_to_g1(asg)
            assert g1.is_filter()
            assert g1_to_g(grid, g1) == asg.filter()
            gfilt = asg.filter()
            for tau in names:
                assert eval_name(hat_map(tau, asg), g1) == \
                    eval_name(tau, gfilt), (bits, tau)
        assert distinct == (12 if cols == 2 else 24)
    print("criterion 7: PASS")


# ---------------------------------------------------------------------------
# criterion 8: conjugating an injection away from its own columns


def partial_injections(n):
    items = list(range(n))
    out = []
    for k in range(n + 1):
        for dom in itertools.combinations(items, k):
            for img in itertools.permutations(items, k):
                out.append(frozenset(zip(dom, img)))
    return out


def test_criterion_08_sigma_conjugation():
    grid = CohenGridPoset(6, 2)
    inj = InjPoset()
    checked = 0
    for bound in (1, 2, 3):
        for n in range(0, min(2, bound) + 1):
            for sigma in partial_injections(bound):
                if not all((i, i) in sigma for i in range(n)):
                    continue
                perm, sprime = sigma_conjugate(sigma, n, bound)
                assert perm == Perm((k, bound + k)
                                    for k in range(n, bound))
                want = frozenset((i, i) for i in range(n)) | frozenset(
                    (i + bound, j + bound)
                    for i, j in sigma if i >= n)
                assert sprime == want
                assert act_name(perm, r_sigma_name(grid, sigma)) == \
                    r_sigma_name(grid, sprime)
                assert inj.compatible(sigma, sprime)
                checked += 1
    assert checked == 56
    print("criterion 8: PASS")


# ---------------------------------------------------------------------------
# criterion 9: column names commute with column permutations


def test_criterion_09_column_name_equivariance():
    rng = random.Random(90817)
    grid = CohenGridPoset(6, 2)
    for _ in range(50):
        i, j = rng.sample(range(6), 2)
        t = transposition(i, j)
        for m in range(6):
            assert act_name(t, xdot_name(grid, m)) == \
                xdot_name(grid, t.apply(m))
            assert act_name(t, xcheckcheck_name(grid, m)) == \
                xcheckcheck_name(grid, t.apply(m))
    print("criterion 9: PASS (50 transpositions)")


# ---------------------------------------------------------------------------
# criterion 10: the CLI is deterministic on the scenario corpus


def test_criterion_10_cli_determinism():
    scenarios = sorted((ROOT / "scenarios").glob("*.fl"))
    assert len(scenarios) == 16
    for path in scenarios:
        sc = parse_scenario(path.read_text())
        sub = sc.command.verb if sc.command else "parse-only"
        runs = [
            subprocess.run(
                [sys.executable, "-m", "forcelab.cli", sub, str(path)],
                capture_output=True, text=True, cwd=ROOT)
            for _ in range(2)]
        assert all(r.returncode == 0 for r in runs), path.stem
        assert runs[0].stdout == runs[1].stdout, path.stem
        golden = (ROOT / "tests" / "golden" / f"{path.stem}.json").read_text()
        assert runs[0].stdout == golden, path.stem
    print("criterion 10: PASS")
