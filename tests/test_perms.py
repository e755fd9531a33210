"""Permutations of the naturals: chains, decomposition, name actions."""

import random

import pytest

from forcelab import (
    Chain, CohenGridPoset, EMPTY_NAME, InvalidInput, MalformedSigma,
    NotInSubgroup, ONE, Perm, UnknownCondition, act_name,
    check_name, column_support, decompose,
    is_fixed_by_Hn, name_conditions, nat, PName, r_sigma_name,
    sigma_conjugate, transposition, unordered_pair_name, xdot_name,
)
from forcelab import perms


def std_chain():
    # ..., 9, 7, 5, 3, 1, 0, 2, 4, 6, 8, ...
    return Chain(0, (3, 1, 0, 2, 4), (2, 5), (2, 4))


class TestChain:
    def test_values_on_both_tails(self):
        ch = std_chain()
        assert [ch.value(i) for i in range(-2, 7)] == \
            [9, 7, 3, 1, 0, 2, 4, 6, 8]

    def test_index_of_inverts_value(self):
        ch = std_chain()
        for i in range(-6, 10):
            assert ch.index_of(ch.value(i)) == i
        assert ch.index_of(5) is None

    def test_min_value_and_indices_below(self):
        ch = std_chain()
        assert ch.min_value() == 0
        assert sorted(ch.value(i) for i in ch.indices_below(2)) == [0, 1]
        # Seeded chains against a scan of every index whose value could be
        # below k: a tail value at distance d from the window is at least
        # d - 1, so k + 1 indices past each end cover both tails.
        rng = random.Random(2110)
        chains = 0
        while chains < 100:
            try:
                ch = Chain(rng.randint(-3, 3),
                           tuple(rng.sample(range(12), rng.randint(0, 4))),
                           (rng.randint(1, 3), rng.randint(-1, 6)),
                           (rng.randint(1, 3), rng.randint(-1, 6)))
            except InvalidInput:
                continue
            chains += 1
            for k in range(25):
                window = range(ch.lo - k - 1, ch.hi + k + 2)
                assert ch.indices_below(k) == \
                    [m for m in window if ch.value(m) < k], (ch, k)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            Chain(0, (1, 1), (2, 5), (2, 4))       # repeated middle value
        with pytest.raises(InvalidInput):
            Chain(0, (7, 9), (2, 5), (2, 4))       # middle meets a tail
        with pytest.raises(InvalidInput):
            Chain(0, (0,), (2, 4), (2, 4))         # tails share values
        with pytest.raises(InvalidInput):
            Chain(0, (0,), (0, 5), (2, 4))         # tail step must advance
        with pytest.raises(InvalidInput):
            Chain(0, [1], (2, 3), (2, 4))          # window not a tuple

    def test_shift_relabels_indices_only(self):
        ch = std_chain()
        sh = ch.shift(2)
        for i in range(-5, 9):
            assert sh.value(i) == ch.value(i + 2)


class TestPerm:
    def test_cycles_canonicalized(self):
        assert Perm([(1, 2, 0)]) == Perm([(0, 1, 2)])
        assert Perm([(3,)]) == Perm()

    def test_overlap_rejected(self):
        with pytest.raises(InvalidInput):
            Perm([(0, 1), (1, 2)])
        with pytest.raises(InvalidInput):
            Perm([(0, 3)], [std_chain()])

    def test_subgroup_predicates(self):
        fin = Perm([(2, 3)])
        inf = Perm((), [std_chain()])
        assert fin.in_G() and fin.in_Hn(2) and not fin.in_Hn(3)
        assert not inf.in_G()

    def test_transposition_validates(self):
        with pytest.raises(InvalidInput):
            transposition(4, 4)

    def test_equal_perms_hash_alike_in_any_cycle_order(self):
        perms = {Perm([(3, 1, 2), (5, 4)]), Perm([(4, 5), (2, 3, 1)]),
                 Perm((), [std_chain()])}
        assert len(perms) == 2
        assert Perm([(3, 1, 2), (5, 4)]) in perms

    def test_repr_is_canonical(self):
        assert repr(Perm([(4, 5), (2, 3, 1)])) == "perm (1 2 3) (4 5)"
        assert repr(Perm()) == "perm id"
        assert repr(Perm((), [std_chain()])) == \
            "perm chain[0..4](3, 1, 0, 2, 4)"


def random_perm(rng, fix_below=0):
    """Disjoint random cycles and at most one chain above a floor."""
    pool = list(range(fix_below, fix_below + 30))
    rng.shuffle(pool)
    cycles = []
    for _ in range(rng.randrange(3)):
        k = rng.randrange(2, 5)
        cycles.append(tuple(pool.pop() for _ in range(k)))
    chains = []
    if rng.random() < 0.7:
        mid = tuple(pool.pop() for _ in range(rng.randrange(1, 4)))
        base = fix_below + 40
        chains.append(Chain(0, mid, (2, base), (2, base + 1)))
    return Perm(cycles, chains)


class TestDecompose:
    def test_chain_split_oracle(self):
        pi = Perm((), [std_chain()])
        first, second = decompose(pi, 0, 2)
        assert first == Perm([(1, 0, 2)])
        assert second.fixes_below(2) and not second.in_G()
        for x in range(60):
            assert pi.apply(x) == first.apply(second.apply(x))

    def test_split_laws_randomized(self):
        rng = random.Random(20240817)
        for trial in range(60):
            n = rng.randrange(0, 5)
            k = rng.randrange(n + 1, 11)
            pi = random_perm(rng, fix_below=n)
            first, second = decompose(pi, n, k)
            assert first.in_Hn(n), (trial, pi)
            assert second.fixes_below(k), (trial, pi)
            for x in range(100):
                assert pi.apply(x) == first.apply(second.apply(x)), \
                    (trial, pi, x)

    def test_requires_fixing_below_n(self):
        with pytest.raises(NotInSubgroup):
            decompose(Perm([(0, 5)]), 1, 2)

    def test_requires_n_below_k(self):
        with pytest.raises(InvalidInput):
            decompose(Perm(), 2, 2)


GRID = CohenGridPoset(6, 2)


class TestNameAction:
    def test_act_name_moves_column_names(self):
        pi = transposition(1, 4)
        assert act_name(pi, xdot_name(GRID, 1)) == xdot_name(GRID, 4)
        assert act_name(pi, xdot_name(GRID, 0)) == xdot_name(GRID, 0)

    def test_act_name_is_functorial(self):
        tau = unordered_pair_name(xdot_name(GRID, 0), xdot_name(GRID, 1))
        pi, rho = transposition(0, 1), transposition(1, 2)
        # pi after rho sends 0 to 1, 1 to 2 and 2 to 0.
        product = Perm([(0, 1, 2)])
        assert [product.apply(x) for x in range(4)] == \
            [pi.apply(rho.apply(x)) for x in range(4)]
        assert act_name(pi, act_name(rho, tau)) == act_name(product, tau)

    def test_act_name_fixes_check_names(self):
        tau = check_name(nat(3))
        assert act_name(transposition(0, 5), tau) == tau

    def test_column_support(self):
        tau = PName([(frozenset({((3, 0), 1)}), xdot_name(GRID, 1))])
        assert column_support(tau) == frozenset({1, 3})

    @pytest.mark.parametrize("cond", ["a", frozenset({(0, 1)}), (1, nat(0)),
                                      1.5])
    def test_non_grid_conditions_are_rejected(self, cond):
        tau = PName([(ONE, PName([(cond, EMPTY_NAME)]))])
        for call in (lambda: column_support(tau),
                     lambda: is_fixed_by_Hn(tau, 0),
                     lambda: act_name(transposition(0, 1), tau)):
            with pytest.raises(UnknownCondition):
                call()


class TestFixedness:
    def test_single_column_name(self):
        assert is_fixed_by_Hn(xdot_name(GRID, 0), 1)
        assert not is_fixed_by_Hn(xdot_name(GRID, 0), 0)

    def test_pair_moved_by_fresh_transposition(self):
        tau = unordered_pair_name(xdot_name(GRID, 2), xdot_name(GRID, 3))
        assert not is_fixed_by_Hn(tau, 2)

    def test_check_names_always_fixed(self):
        assert is_fixed_by_Hn(check_name(nat(2)), 0)
        assert is_fixed_by_Hn(EMPTY_NAME, 0)

    @staticmethod
    def random_name(rng, depth):
        """A name whose entries' conditions mention columns 0..5, of depth
        at most ``depth``, with column and relation names among its
        children."""
        entries = []
        for _ in range(rng.randint(0, 3)):
            cells = rng.sample([(c, r) for c in range(6) for r in range(2)],
                               rng.randint(0, 2))
            cond = rng.choice(
                [ONE, frozenset((cell, rng.randint(0, 1)) for cell in cells)])
            pick = rng.randrange(4) if depth else 3
            if pick == 0:
                child = xdot_name(GRID, rng.randrange(6))
            elif pick == 1:
                child = r_sigma_name(GRID, rng.sample(
                    [(i, j) for i in range(6) for j in range(6) if i != j],
                    1))
            elif pick == 2:
                child = TestFixedness.random_name(rng, depth - 1)
            else:
                child = check_name(nat(rng.randrange(3)))
            entries.append((cond, child))
        return PName(entries)

    def test_fixed_exactly_when_the_action_fixes_the_name(self):
        # H_n-fixedness against the group action itself: a sample of
        # finitary permutations fixing [0, n), among them each support
        # column's swap with a column the name never mentions.
        rng = random.Random(4811)
        counts = {True: 0, False: 0}
        for _ in range(300):
            depth = rng.randint(0, 3)
            tau = rng.choice([self.random_name(rng, depth),
                              xdot_name(GRID, rng.randrange(6)),
                              r_sigma_name(GRID, [(rng.randrange(3),
                                                   3 + rng.randrange(3))])])
            n = rng.randint(0, 6)
            support = column_support(tau)
            fresh = max([n - 1, *support]) + 1
            sample = [transposition(c, fresh) for c in support if c >= n]
            for _ in range(4):
                points = rng.sample(range(n, fresh + 2), min(3, fresh + 2 - n))
                sample.append(Perm([points]))
            fixed = all(act_name(pi, tau) is tau for pi in sample)
            assert all(pi.in_Hn(n) for pi in sample)
            assert is_fixed_by_Hn(tau, n) == fixed, (tau, n)
            counts[fixed] += 1
        assert min(counts.values()) > 50, counts

    def test_a_call_builds_no_permutation_and_acts_on_no_name(
            self, monkeypatch):
        counts = {"perm": 0, "act": 0}
        build, act = Perm.__init__, perms._act

        def counting_build(self, *args, **kwargs):
            counts["perm"] += 1
            build(self, *args, **kwargs)

        def counting_act(*args):
            counts["act"] += 1
            return act(*args)

        monkeypatch.setattr(Perm, "__init__", counting_build)
        monkeypatch.setattr(perms, "_act", counting_act)
        tau = unordered_pair_name(xdot_name(GRID, 2), xdot_name(GRID, 3))
        assert is_fixed_by_Hn(tau, 4)
        assert not is_fixed_by_Hn(tau, 1)
        assert counts == {"perm": 0, "act": 0}

    def test_a_chain_past_the_stack_is_read(self):
        # Each question walks the name with its own stack and builds no
        # canonical key, so nesting past Python's stack is read.
        cond = frozenset({((0, 0), 1)})
        t = EMPTY_NAME
        for _ in range(1500):
            t = PName([(cond, t)])
        assert name_conditions(t) == {cond}
        assert column_support(t) == frozenset({0})
        assert is_fixed_by_Hn(t, 1)


class TestSigmaConjugate:
    def test_oracle(self):
        pi, out = sigma_conjugate({(0, 0), (1, 2)}, 1, 3)
        assert pi == Perm([(1, 4), (2, 5)])
        assert out == frozenset({(0, 0), (4, 5)})

    def test_translated_part_lives_on_fresh_columns(self):
        _, out = sigma_conjugate({(0, 0), (1, 1), (2, 3)}, 2, 4)
        assert out == frozenset({(0, 0), (1, 1), (6, 7)})

    def test_rejects_non_injection(self):
        with pytest.raises(MalformedSigma):
            sigma_conjugate({(0, 0), (1, 0)}, 0, 2)

    def test_rejects_missing_identity_part(self):
        with pytest.raises(MalformedSigma):
            sigma_conjugate({(0, 1), (1, 0)}, 1, 2)

    def test_rejects_escaping_bound(self):
        with pytest.raises(MalformedSigma):
            sigma_conjugate({(0, 0), (1, 5)}, 1, 3)
