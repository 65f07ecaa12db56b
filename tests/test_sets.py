"""Subset: bit-mask membership, algebra, canonical ordering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roughalg import Subset, ValidationError, all_subsets, canonical_subsets

from conftest import subsets


def test_from_elements_and_membership():
    s = Subset.from_elements(5, [0, 3])
    assert 0 in s and 3 in s
    assert 1 not in s and 4 not in s
    assert len(s) == 2
    assert s.elements() == (0, 3)


def test_out_of_range_element_rejected():
    with pytest.raises(ValidationError):
        Subset.from_elements(3, [3])
    with pytest.raises(ValidationError):
        Subset.from_elements(3, [-1])


def test_mask_out_of_range_rejected():
    with pytest.raises(ValidationError):
        Subset(2, 0b100)


@pytest.mark.parametrize("n", [2.0, True])
def test_carrier_size_must_be_an_int(n):
    with pytest.raises(ValidationError, match="carrier size") as exc:
        Subset(n, 1)
    assert exc.value.field == "n"


def test_empty_and_universe():
    assert len(Subset.empty(4)) == 0
    assert not Subset.empty(4)
    assert Subset.universe(4).elements() == (0, 1, 2, 3)


def test_set_algebra_examples():
    a = Subset.from_elements(4, [0, 1])
    b = Subset.from_elements(4, [1, 2])
    assert (a | b).elements() == (0, 1, 2)
    assert (a & b).elements() == (1,)
    assert (a - b).elements() == (0,)
    assert a.complement().elements() == (2, 3)
    assert a.issubset(a | b)
    assert not a.issubset(b)
    assert a.isdisjoint(Subset.from_elements(4, [3]))


def test_carrier_mismatch_rejected():
    with pytest.raises(ValidationError):
        Subset.empty(3) | Subset.empty(4)


def test_iteration_is_ascending():
    s = Subset.from_elements(6, [5, 0, 3])
    assert list(s) == [0, 3, 5]


def test_canonical_subsets_order():
    got = [s.elements() for s in canonical_subsets(3)]
    assert got == [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def test_all_subsets_count():
    assert len(list(all_subsets(4))) == 16
    assert len(set(all_subsets(4))) == 16


@given(subsets(5))
def test_double_complement_is_identity(s):
    assert s.complement().complement() == s


@given(subsets(5), subsets(5))
def test_de_morgan(a, b):
    assert (a | b).complement() == a.complement() & b.complement()
    assert (a & b).complement() == a.complement() | b.complement()


@given(subsets(5), subsets(5))
def test_difference_matches_python_sets(a, b):
    assert set(a - b) == set(a) - set(b)
    assert set(a | b) == set(a) | set(b)
    assert set(a & b) == set(a) & set(b)


@given(subsets(5), subsets(5))
def test_issubset_matches_python_sets(a, b):
    assert a.issubset(b) == (set(a) <= set(b))


@given(st.integers(1, 5))
def test_canonical_order_is_total_and_stable(n):
    subs = canonical_subsets(n)
    keys = [s.sort_key for s in subs]
    assert keys == sorted(keys)
    assert len(set(subs)) == 1 << n
