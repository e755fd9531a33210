"""Interning: equal HF sets, names and formula nodes are one object, the
object survives copying and pickling, and the weak unique tables let go of
what a finished computation no longer uses."""

import copy
import gc
import os
import pickle
import random
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from forcelab import (
    EMPTY, EMPTY_NAME, HF, ONE, Cname, Eq, Exists, Family, FlatPoset, Forall,
    InName, InvalidInput, Member, NameSpace, Not, Or, RankLE, Var, check_name,
    forces_semantic, forces_syntactic, gamma_name, mix, nat, PName,
)
from forcelab import formulas, hf, names

SRC = str(Path(__file__).resolve().parent.parent / "src")

VALUES = {
    "hf": lambda: HF([nat(3), HF([nat(1)])]),
    "name": lambda: PName([("a", check_name(nat(2))), (ONE, EMPTY_NAME)]),
    "formula": lambda: Exists("x", InName(check_name(nat(2))),
                              Member(Var("x"), Cname(check_name(nat(1))))),
}
ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


@pytest.mark.parametrize("trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_round_trip_returns_the_interned_object(make, trip):
    value = make()
    assert trip(value) is value
    assert len(EMPTY.members) == 0 and EMPTY.rank == 0
    assert HF() is EMPTY and nat(0) is EMPTY


def _name_chain(depth):
    t = EMPTY_NAME
    for i in range(depth):
        t = PName([((i, 0), t), ((i, 1), t)])
    return t


def _hf_chain(depth):
    h = EMPTY
    for _ in range(depth):
        h = HF([h, HF([h])])
    return h


@pytest.mark.parametrize("chain", [_name_chain, _hf_chain],
                         ids=["name", "hf"])
def test_deep_equal_values_are_one_object(chain):
    # Compared structurally, two separately built chains of depth 40 take
    # about 2^40 steps.
    start = time.perf_counter()
    a, b = chain(40), chain(40)
    assert a is b and a == b and hash(a) == hash(b)
    assert time.perf_counter() - start < 1.0


def _batch():
    """Queries on a fresh poset through both routes, a name space, the
    filter name and a mixed name; returns weak references to the filter
    name and to a formula built from it.  No other test builds this
    family, so nothing outside the batch holds its names."""
    flat = FlatPoset(Family([("u", [nat(5)]), ("v", [nat(6), nat(7)])]))
    gamma = gamma_name(flat)
    g = Cname(gamma)
    phi = Exists("x", InName(gamma), Member(Var("x"), g))
    psi = Forall("y", RankLE(1), Or(Member(Var("y"), g),
                                    Not(Member(Var("y"), g))))
    space = NameSpace(flat, [gamma], 1)
    mixed = mix(flat, ONE, ["u", "v"], {"u": check_name(nat(0)), "v": gamma})
    for theta in (phi, psi, Eq(Cname(mixed), g)):
        for c in flat.conditions():
            assert forces_semantic(flat, c, theta, space) == \
                forces_syntactic(flat, c, theta, space)
    return weakref.ref(gamma), weakref.ref(phi)


def _table_sizes():
    gc.collect()
    return [len(t) for t in (hf._UNIQUE, names._UNIQUE, formulas._UNIQUE)]


def test_unique_tables_stay_bounded_over_repeated_batches():
    refs = _batch()
    first = _table_sizes()
    assert [r() for r in refs] == [None, None]
    _batch()
    refs = _batch()
    third = _table_sizes()
    assert [r() for r in refs] == [None, None]
    assert all(t <= f for t, f in zip(third, first)), (first, third)


# Values no other test builds, with the key of each in its unique table.
FRESH = {
    "hf": (hf, lambda: HF([nat(5), HF([nat(5), HF([nat(5)])])]),
           lambda h: h.members),
    "name": (names, lambda: PName([("interning", check_name(nat(5)))]),
             lambda n: n.entries),
}


@pytest.fixture
def no_collector():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("module, make, key_of", FRESH.values(),
                         ids=FRESH.keys())
def test_dropped_value_leaves_its_table(no_collector, module, make, key_of):
    value = make()
    key = key_of(value)
    assert module._UNIQUE[key]() is value
    del value
    assert key not in module._UNIQUE


@pytest.mark.parametrize("module, make, key_of", FRESH.values(),
                         ids=FRESH.keys())
def test_reinterning_after_death_keeps_one_live_value(no_collector, module,
                                                     make, key_of):
    table = module._UNIQUE
    value = make()
    key = key_of(value)
    old = table[key]
    forget = old.__callback__
    del value
    assert old() is None and key not in table
    # A dead reference still in the table, as when the collector has
    # cleared it but not yet run its callback, is replaced on lookup.
    table[key] = old
    again = make()
    assert make() is again and table[key]() is again
    # The stale callback, run late, leaves the live entry alone.
    forget(old)
    assert table[key]() is again
    del again
    assert key not in table


def test_one_pass_constructors_on_random_nested_inputs():
    # HF and PName validate, take the rank and (for a name) detect a
    # check-name in one pass over the members; the result must be what
    # three separate passes give.
    rng = random.Random(2020)
    sets, pool = [EMPTY], [EMPTY_NAME]
    for _ in range(400):
        members = rng.sample(sets, rng.randint(0, min(4, len(sets))))
        h = HF(members)
        assert h.rank == 1 + max((m.rank for m in members), default=-1)
        sets.append(h)
        entries = [(ONE if rng.random() < 0.7 else rng.choice("ab"),
                    rng.choice(pool)) for _ in range(rng.randint(0, 3))]
        n = PName(entries)
        assert n.rank == 1 + max((c.rank for _, c in entries), default=-1)
        if all(c is ONE and child.value is not None for c, child in entries):
            assert n.value is HF(child.value for _, child in entries)
            assert n is check_name(n.value)
        else:
            assert n.value is None
        pool += [n, check_name(rng.choice(sets))]
    assert sum(n.value is not None for n in pool) > 100
    assert sum(n.value is None for n in pool) > 100


BAD_MEMBERS = {
    "hf-int": (hf, HF, [HF([HF([nat(9)])]), 3]),
    "hf-name": (hf, HF, [HF([HF([nat(9)])]), EMPTY_NAME]),
    "name-child-int": (names, PName, [(ONE, EMPTY_NAME), ("bad", 3)]),
    "name-short-entry": (names, PName, [(ONE, EMPTY_NAME), ("bad",)]),
    "name-long-entry": (names, PName,
                        [(ONE, EMPTY_NAME), ("bad", EMPTY_NAME, 1)]),
    "name-str-entry": (names, PName, [(ONE, EMPTY_NAME), "ab"]),
}


@pytest.mark.parametrize("module, make, members", BAD_MEMBERS.values(),
                         ids=BAD_MEMBERS.keys())
def test_bad_member_is_refused_and_leaves_no_entry(module, make, members):
    before = len(module._UNIQUE)
    with pytest.raises(InvalidInput):
        make(members)
    assert frozenset(members) not in module._UNIQUE
    assert len(module._UNIQUE) <= before


@pytest.mark.parametrize("make, members", [
    (HF, [[EMPTY]]),
    (PName, [["a", EMPTY_NAME]]),
], ids=["hf", "name"])
def test_unhashable_member_is_invalid_input(make, members):
    # frozenset() refuses an unhashable member before any check runs; the
    # constructor turns its TypeError into the coded error.
    with pytest.raises(InvalidInput) as info:
        make(members)
    assert info.value.code == "invalid-input"


def test_cold_process_exits_with_an_empty_stderr():
    # Interned values still alive at interpreter exit, some in reference
    # cycles, must not make the tables' callbacks raise during shutdown.
    code = (
        "import forcelab as f\n"
        "p = f.FlatPoset(f.Family([('a', [f.nat(0)]), ('b', [f.nat(1)])]))\n"
        "g = f.gamma_name(p)\n"
        "s = f.NameSpace(p, [g], 1)\n"
        "phi = f.Exists('x', f.RankLE(1), f.Member(f.Var('x'), f.Cname(g)))\n"
        "assert f.forces_semantic(p, f.ONE, phi, s)\n"
        "keep = [s, phi, f.HF([f.nat(3)])]\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert (out.returncode, out.stderr) == (0, "")
