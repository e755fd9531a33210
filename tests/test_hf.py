"""Hereditarily finite sets: construction, rank, rendering, encodings."""

import pytest
from hypothesis import given, strategies as st

from forcelab import (
    EMPTY, HF, InvalidInput, kuratowski, nat, nat_value,
)


def small_hf(depth=2):
    base = st.just(EMPTY)
    return st.recursive(
        base, lambda kids: st.frozensets(kids, max_size=3).map(HF),
        max_leaves=8)


class TestConstruction:
    def test_empty_has_no_members(self):
        assert len(EMPTY.members) == 0
        assert EMPTY.rank == 0

    def test_membership_is_set_like(self):
        s = HF([EMPTY, EMPTY, HF([EMPTY])])
        assert len(s.members) == 2

    def test_len_counts_members(self):
        assert (len(EMPTY), len(nat(3)), len(HF([nat(2), nat(2)]))) == \
            (0, 3, 1)

    def test_nat_von_neumann(self):
        assert nat(0) == EMPTY
        assert nat(3).members == frozenset({nat(0), nat(1), nat(2)})

    def test_nat_rank_is_value(self):
        for k in range(5):
            assert nat(k).rank == k

    def test_nat_value_roundtrip(self):
        for k in range(6):
            assert nat_value(nat(k)) == k

    def test_nat_value_none_on_non_ordinal(self):
        assert nat_value(HF([HF([HF([EMPTY])])])) is None
        assert nat_value(HF([nat(1)])) is None

    def test_nat_rejects_negative(self):
        with pytest.raises(InvalidInput):
            nat(-1)


class TestOrderAndRender:
    @given(small_hf(), small_hf())
    def test_key_total_order(self, a, b):
        assert (a.key() == b.key()) == (a == b)
        assert (a.key() < b.key()) or (b.key() < a.key()) or a == b

    @given(small_hf())
    def test_rank_is_one_plus_max_member_rank(self, a):
        if a.members:
            assert a.rank == 1 + max(m.rank for m in a.members)
        else:
            assert a.rank == 0

    def test_render_nat_shorthand(self):
        assert repr(nat(2)) == "2"
        assert repr(HF([nat(1)])) == "{1}"
        assert repr(HF([EMPTY, HF([nat(1)])])) == "{0,{1}}"

    def test_kuratowski(self):
        pair = kuratowski(nat(1), nat(2))
        assert pair == HF([HF([nat(1)]), HF([nat(1), nat(2)])])
        assert kuratowski(nat(1), nat(1)) == HF([HF([nat(1)])])

    @given(small_hf(), small_hf(), small_hf(), small_hf())
    def test_kuratowski_injective(self, a, b, c, d):
        if kuratowski(a, b) == kuratowski(c, d):
            assert (a, b) == (c, d)
