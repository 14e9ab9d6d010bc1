import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melnlab.combinatorics import compositions, partitions
from melnlab.errors import DomainError


def test_counts_match_partition_numbers():
    assert [len(partitions(l)) for l in range(1, 7)] == [1, 2, 3, 5, 7, 11]


def test_small_cases():
    assert [b for b, _, _ in partitions(1)] == [(1,)]
    assert {b for b, _, _ in partitions(2)} == {(2, 0), (0, 1)}
    assert compositions(3, 2) == ((1, 2), (2, 1))
    assert compositions(2, 3) == ()
    assert len(compositions(5, 3)) == 6


def test_out_of_range():
    with pytest.raises(DomainError):
        partitions(0)
    with pytest.raises(DomainError):
        partitions(13)
    with pytest.raises(DomainError):
        compositions(0, 1)


@given(st.integers(min_value=1, max_value=9))
@settings(max_examples=9, deadline=None)
def test_partition_constraint_exact(l):
    seen = set()
    for b, lb, w in partitions(l):
        assert sum((m + 1) * bm for m, bm in enumerate(b)) == l
        assert sum(b) == lb
        denom = 1
        for m, bm in enumerate(b, start=1):
            denom *= math.factorial(bm) * math.factorial(m) ** bm
        assert w == pytest.approx(1.0 / denom, rel=1e-15)
        assert b not in seen
        seen.add(b)
    assert [b for b, _, _ in partitions(l)] == sorted(seen)


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9))
@settings(max_examples=40, deadline=None)
def test_composition_constraint_and_count(q, l):
    cs = compositions(q, l)
    for t in cs:
        assert len(t) == l
        assert all(v >= 1 for v in t)
        assert sum(t) == q
    expected = math.comb(q - 1, l - 1) if q >= l else 0
    assert len(cs) == expected
    assert len(set(cs)) == len(cs)
    assert list(cs) == sorted(cs)
