"""Each poset kind compiles its kernel from its structure.  Checked against
an n² compile written here: the conditions listed independently and sorted
by ``condition_key``, then every pair asked of an order and compatibility
defined here (a brute-force reachability over the given pairs for explicit
and flat posets), and every condition encoded by ``_condition_hf``.  Every
truncation is an up-set, so a condition outside it has no extension in it;
``Kernel.below`` reads 0 for one without asking the order."""

import itertools
import random
import time

import pytest

import forcelab
from forcelab import (
    HF, BinaryTreePoset, ChoicePoset, CohenGridPoset, ExplicitPoset, Family,
    FlatPoset, InjPoset, InvalidInput, MapPoset, Poset, fn_omega_omega,
    gamma_name, inj_omega_omega, nat,
)


def _up_sets(elements, pairs):
    """Each element's up-set: every element it reaches through the pairs."""
    succ = {e: set() for e in elements}
    for a, b in pairs:
        succ[a].add(b)
    up = {}
    for e in elements:
        seen, stack = {e}, [e]
        while stack:
            for f in succ[stack.pop()] - seen:
                seen.add(f)
                stack.append(f)
        up[e] = seen
    return up


def explicit_oracle(elements, pairs):
    up = _up_sets(elements, pairs)
    return (list(elements), lambda p, q: q in up[p],
            lambda p, q: any(p in up[r] and q in up[r] for r in elements))


def choice_oracle(family, levels):
    block = {x: lab for lab in family.labels for x in family.blocks[lab]}
    conds = [(n, x) for n in range(levels) for x in block]
    return (conds,
            lambda p, q: p == q or (p[0] > q[0] and block[p[1]] == block[q[1]]),
            lambda p, q: block[p[1]] == block[q[1]])


def tree_oracle(depth):
    conds = ["".join(bits) for k in range(depth + 1)
             for bits in itertools.product("01", repeat=k)]
    return (conds, lambda p, q: p.startswith(q),
            lambda p, q: p.startswith(q) or q.startswith(p))


def map_oracle(doms, cods, injective):
    conds = []
    for k in range(len(doms) + 1):
        for dom in itertools.combinations(doms, k):
            for vals in itertools.product(cods, repeat=k):
                if not injective or len(set(vals)) == k:
                    conds.append(frozenset(zip(dom, vals)))

    # p | q is a map (one-to-one when injective) unless q holds an entry
    # giving one of p's items another value (or image).
    clash = {p: {(u, w) for u, v in p for w in cods if w != v}
             | {(x, v) for u, v in p for x in doms if injective and x != u}
             for p in conds}
    return conds, lambda p, q: p >= q, lambda p, q: clash[p].isdisjoint(q)


def n2_compile(poset, conds, le, compatible):
    conds = tuple(sorted(conds, key=poset.condition_key))
    down = tuple(sum(1 << j for j, p in enumerate(conds) if le(p, q))
                 for q in conds)
    minimals = tuple(i for i, m in enumerate(down) if m == 1 << i)
    try:
        codes = tuple(poset._condition_hf(c) for c in conds)
    except InvalidInput:
        codes = InvalidInput
    return {
        "conds": conds,
        "down": down,
        "minimals": minimals,
        "minimal": sum(1 << i for i in minimals),
        "top": None if poset.top is None else conds.index(poset.top),
        "compat": tuple(sum(1 << j for j, q in enumerate(conds)
                            if compatible(p, q)) for p in conds),
        "codes": codes,
    }


def compiled(poset):
    k = poset.kernel()
    try:
        codes = k.codes
    except InvalidInput:
        codes = InvalidInput
    return {"conds": k.conds, "down": k.down,
            "minimals": k.minimals, "minimal": k.minimal, "top": k.top,
            "compat": k.compat, "codes": codes}


def random_explicit(rng):
    """A random poset with a greatest element, its elements listed in an
    order unrelated to the order, with repeated and reflexive pairs."""
    n = rng.randint(1, 7)
    elements = [f"e{i}" for i in range(n)]
    pairs = [(elements[i], elements[j]) for i in range(n)
             for j in range(i + 1, n) if rng.random() < 0.3]
    pairs += [(e, e) for e in elements if rng.random() < 0.2]
    pairs += rng.sample(pairs, min(2, len(pairs)))
    elements.append("1")
    pairs += [(e, "1") for e in elements[:-1] if rng.random() < 0.7]
    pairs += [(e, "1") for e in elements[:-1]
              if not any(a == e and b != e for a, b in pairs)]
    rng.shuffle(elements)
    rng.shuffle(pairs)
    return elements, pairs


FAMILIES = [
    Family([("a", [nat(0)])]),
    Family([("a", [nat(0), nat(1)]), ("b", [nat(2)])]),
    Family([("b", [nat(3), nat(0)]), ("a", [nat(2), HF([nat(1)])]),
            ("c", [nat(5)])]),
]


def cases():
    """(poset, oracle) for every kind, enough to cover each structure."""
    rng = random.Random(2111)
    for _ in range(40):
        elements, pairs = random_explicit(rng)
        top = rng.choice([None, "1"])
        yield (ExplicitPoset(elements, pairs, top),
               explicit_oracle(elements, pairs))
    for fam in FAMILIES:
        elements = [*fam.labels, "1"]
        yield (FlatPoset(fam),
               explicit_oracle(elements, [(lab, "1") for lab in fam.labels]))
        for levels in (1, 2, 3):
            yield ChoicePoset(fam, levels), choice_oracle(fam, levels)
    for depth in (1, 2, 3, 4):
        yield BinaryTreePoset(depth), tree_oracle(depth)
    for dom, cod in itertools.product(range(4), repeat=2):
        yield fn_omega_omega(dom, cod), map_oracle(range(dom), range(cod), False)
        yield inj_omega_omega(dom, cod), map_oracle(range(dom), range(cod), True)
    for cols, rows in itertools.product((1, 2, 3), (1, 2)):
        cells = [(c, r) for c in range(cols) for r in range(rows)]
        yield CohenGridPoset(cols, rows), map_oracle(cells, (0, 1), False)
    doms, cods = (2, frozenset({1}), frozenset(), 0), (frozenset({0, 1}), 1)
    yield MapPoset(doms, cods), map_oracle(doms, cods, False)
    yield InjPoset(doms, cods), map_oracle(doms, cods, True)
    sets = (frozenset(), frozenset({0, 1}), frozenset({2}))
    yield InjPoset(sets, sets), map_oracle(sets, sets, True)
    # Windows narrower than the declared items.
    yield (MapPoset((0, 1, 2), (0, 1), dom_window=(1,)),
           map_oracle((1,), (0, 1), False))
    yield (InjPoset((0, 1, 2), (0, 1, 2), cod_window=(2, 0)),
           map_oracle((0, 1, 2), (0, 2), True))


def _off(items, window):
    """Items off a window: the declared items outside it or, for the
    naturals, the first natural past a window range(n)."""
    if items is None:
        return [len(window)]
    return [x for x in items if x not in window]


def outside(poset):
    """Valid conditions outside the truncation: a level or a depth past
    it, or a map of the window grown by an entry off the window."""
    if isinstance(poset, ChoicePoset):
        n = poset.level_bound
        return [(m, x) for m in (n, n + 1) for x in poset.family._block_of]
    if isinstance(poset, BinaryTreePoset):
        return [c + "0" for c in poset.conditions() if len(c) == poset.depth] \
            + ["1" * (poset.depth + 2)]
    if isinstance(poset, CohenGridPoset):
        off = [((poset.cols, 0), 0), ((0, poset.rows), 1)]
    elif isinstance(poset, MapPoset):
        doms, cods = poset.dom_window, poset.cod_window
        off = [(u, v) for u in _off(poset.dom_items, doms) for v in cods[:1]]
        off += [(u, v) for u in doms[:1] for v in _off(poset.cod_items, cods)]
    else:
        return []
    grown = (c | {e} for c in poset.conditions() for e in off)
    return [c for c in grown if poset.is_condition(c)]


def test_every_kind_compiles_what_the_n2_compile_gives():
    # About 0.4 s, bounded at 1 s: the n² compiles of the 729-condition
    # grid dominate.
    start = time.monotonic()
    kinds = set()
    for poset, oracle in cases():
        want = n2_compile(poset, *oracle)
        assert compiled(poset) == want, poset
        assert poset.conditions() is poset.kernel().conds
        assert poset._size() == len(want["conds"])
        kinds.add(type(poset))
    assert len(kinds) == 7
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_a_condition_outside_the_truncation_has_no_extension_inside_it():
    # Kernel.below gives 0 for it, and the order defined here agrees.
    kinds = set()
    for poset, (_, le, _) in cases():
        k = poset.kernel()
        for c in outside(poset):
            assert poset.is_condition(c) and c not in k.index, (poset, c)
            assert k.below(c) == 0, (poset, c)
            assert not any(le(p, c) for p in k.conds), (poset, c)
            kinds.add(type(poset))
    assert kinds == {ChoicePoset, BinaryTreePoset, MapPoset, InjPoset,
                     CohenGridPoset}


def test_str_items_have_no_codes():
    # A str item is refused when the poset is built, so no kernel holds
    # one; over the naturals a str entry is not a condition.
    with pytest.raises(InvalidInput):
        MapPoset(("a",), ("x",))
    assert not fn_omega_omega(2, 2).is_condition(frozenset({("a", 0)}))


def test_set_items_have_no_codes():
    # The mixed MapPoset case above checks that both compiles refuse to
    # encode; it must really be refused: only naturals encode.
    sets = (frozenset(), frozenset({0, 1}))
    with pytest.raises(InvalidInput):
        InjPoset(sets, sets).kernel().codes
    with pytest.raises(InvalidInput):
        MapPoset(sets, sets).condition_hf(frozenset({(sets[0], sets[1])}))


def test_a_repeated_window_item_counts_once():
    # A window listing an item twice still gives each map once, and only
    # maps: no condition sends the item to two values.
    p = MapPoset(dom_window=(0, 0), cod_window=(1, 0, 1))
    assert p.conditions() == (frozenset(), frozenset({(0, 0)}),
                              frozenset({(0, 1)}))
    assert p._size() == 3


MAP_WINDOWS = {
    "fn": lambda: fn_omega_omega(2, 3),
    "inj": lambda: inj_omega_omega(3, 2),
    "grid": lambda: CohenGridPoset(2, 2),
    "fn-repeat": lambda: MapPoset(dom_window=(0, 1, 0), cod_window=(2, 2, 1)),
    "inj-repeat": lambda: InjPoset(dom_window=(1, 1, 0),
                                   cod_window=(0, 1, 2, 0)),
}


@pytest.mark.parametrize("make", MAP_WINDOWS.values(), ids=MAP_WINDOWS.keys())
def test_a_map_posets_size_counts_its_conditions_before_it_compiles(make):
    # A name space's cap reads the size on every construction, so it counts
    # each window's distinct items without compiling or sorting them.
    poset = make()
    size = poset._size()
    assert poset._kernel is None
    assert size == len(poset.conditions())


def test_cyclic_pairs_are_refused_with_the_first_pair_on_a_cycle():
    # The first element, in list order, that lies on a cycle, and the first
    # other element on one with it.
    rng = random.Random(2112)
    for _ in range(40):
        elements, pairs = random_explicit(rng)
        a, b = rng.sample(elements, 2)
        pairs += [(a, b), (b, a)]
        up = _up_sets(elements, pairs)
        first = next((p, q) for p in elements for q in elements
                     if p != q and q in up[p] and p in up[q])
        with pytest.raises(InvalidInput) as info:
            ExplicitPoset(elements, pairs, "1")
        assert str(info.value) == "order is not antisymmetric: %s, %s" % first


def _kinds():
    stack = [Poset]
    while stack:
        cls = stack.pop()
        yield cls
        stack.extend(cls.__subclasses__())


def test_compiling_a_kernel_asks_no_order_question(monkeypatch):
    # A guard against an n² compile coming back: no kind's _le or
    # _compatible runs while a kernel, its derived tables and the filter
    # name are built, nor while below reads a condition inside or outside
    # the truncation.
    calls = []
    for cls in _kinds():
        if cls.__module__.startswith(forcelab.__name__):
            for name in ("_le", "_compatible"):
                if name in vars(cls):
                    def counted(self, p, q, _f=vars(cls)[name], _n=name):
                        calls.append(_n)
                        return _f(self, p, q)
                    monkeypatch.setattr(cls, name, counted)
    for poset, _ in cases():
        k = poset.kernel()
        assert poset.conditions() is k.conds
        assert len(k.down) == len(k.compat) == len(k.conds)
        try:
            gamma_name(poset)
        except InvalidInput:  # str and set items encode as no set
            pass
        for c in (*k.conds, *outside(poset)):
            k.below(c)
    assert calls == []
    fn_omega_omega(1, 1).le(frozenset(), frozenset())
    assert calls == ["_le"]
