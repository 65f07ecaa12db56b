"""Ideal predicates and enumeration, including the negative-fixture regressions."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roughalg import (
    LABEL_AXIOMS,
    FiniteAlgebra,
    SearchSpec,
    Subset,
    ValidationError,
    enumerate_algebras,
    enumerate_ideals,
    is_ideal,
    is_strong_ideal,
)

import oracles
from conftest import BUNDLED, algebras, benchmark_table, subsets


def _sets(found):
    return [s.elements() for s in found]


def test_bh4_01_is_an_ideal(bh4):
    report = is_ideal(bh4, Subset.from_elements(4, [0, 1]))
    assert report.is_ideal
    assert report.pair_witnesses == ()


def test_z4_012_is_not_an_ideal(z4):
    # the fixture claim fails: membership closure breaks on row 3 in three
    # places, (3,1) among them
    report = is_ideal(z4, Subset.from_elements(4, [0, 1, 2]))
    assert not report.is_ideal
    assert report.pair_witnesses == ((3, 0), (3, 1), (3, 2))
    assert (3, 1) in report.pair_witnesses


def test_bo5_01_is_not_an_ideal(bo5):
    report = is_ideal(bo5, Subset.from_elements(5, [0, 1]))
    assert not report.is_ideal
    assert report.pair_witnesses == ((3, 1),)


def test_full_carrier_is_ideal_and_strong(b4, bo5, bh4, z4):
    for alg in (b4, bo5, bh4, z4):
        report = is_strong_ideal(alg, Subset.universe(alg.n))
        assert report.is_ideal
        assert report.is_strong


def test_missing_zero(bh4):
    report = is_ideal(bh4, Subset.from_elements(4, [1]))
    assert not report.has_zero
    assert not report.is_ideal


def test_bh4_singleton_zero_is_strong(bh4):
    report = is_strong_ideal(bh4, Subset.from_elements(4, [0]))
    assert report.is_strong
    assert report.triple_witnesses == ()


def test_bh4_01_is_strong(bh4):
    # frozen from the exhaustive 64-triple check
    report = is_strong_ideal(bh4, Subset.from_elements(4, [0, 1]))
    assert report.is_strong
    assert report.is_ideal


def test_conditions_are_independent(bh4, z4):
    # {0,1,2} on bh4: ideal but not strong
    r = is_strong_ideal(bh4, Subset.from_elements(4, [0, 1, 2]))
    assert r.is_ideal and not r.is_strong
    # {0} on z4: strong but not an ideal (z4 lacks x*0 = x)
    r = is_strong_ideal(z4, Subset.from_elements(4, [0]))
    assert r.is_strong and not r.is_ideal


def test_plain_check_leaves_triples_unevaluated(bh4):
    report = is_ideal(bh4, Subset.from_elements(4, [0]))
    assert report.triple_closed is None
    assert report.is_strong is None


def test_enumerate_bh4(bh4):
    assert _sets(enumerate_ideals(bh4)) == [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)]


def test_enumerate_b4(b4):
    assert _sets(enumerate_ideals(b4)) == [(0,), (0, 1), (0, 2), (0, 3), (0, 1, 2, 3)]


def test_enumerate_bo5(bo5):
    assert _sets(enumerate_ideals(bo5)) == [(0,), (0, 1, 2, 3, 4)]


def test_enumerate_z4(z4):
    assert _sets(enumerate_ideals(z4)) == [(0, 1, 2, 3)]


def test_enumerate_strong(bh4, z4):
    assert _sets(enumerate_ideals(bh4, strong=True)) == [(0,), (0, 1), (0, 1, 2, 3)]
    assert _sets(enumerate_ideals(z4, strong=True)) == [(0,), (0, 1, 2, 3)]


def test_singleton_algebra_ideals():
    from roughalg import FiniteAlgebra

    assert _sets(enumerate_ideals(FiniteAlgebra(1, [[0]]))) == [(0,)]


def test_enumeration_guard():
    from roughalg import FiniteAlgebra

    big = FiniteAlgebra(21, [[0] * 21] * 21)
    with pytest.raises(ValidationError, match="carrier size 21 exceeds enumeration limit 20"):
        enumerate_ideals(big)


def test_witness_cap(z4):
    report = is_ideal(z4, Subset.from_elements(4, [0, 1, 2]), max_witnesses=1)
    assert not report.is_ideal
    assert report.pair_witnesses == ((3, 0),)


@given(algebras(4), st.data())
def test_predicates_match_oracle(alg, data):
    members = data.draw(subsets(alg.n))
    report = is_strong_ideal(alg, members)
    table = [list(r) for r in alg.table]
    assert list(report.pair_witnesses) == oracles.ideal_pair_violations(table, set(members))
    assert list(report.triple_witnesses) == oracles.ideal_triple_violations(table, set(members))
    assert report.is_ideal == oracles.is_ideal(table, set(members), alg.zero)
    assert report.is_strong == oracles.is_strong_ideal(table, set(members), alg.zero)


@given(algebras(4))
def test_list_predicate_consistency(alg):
    listed = set(enumerate_ideals(alg))
    for mask in range(1 << alg.n):
        s = Subset(alg.n, mask)
        assert (s in listed) == is_ideal(alg, s).is_ideal


@given(algebras(4))
def test_strong_list_predicate_consistency(alg):
    listed = set(enumerate_ideals(alg, strong=True))
    for mask in range(1 << alg.n):
        s = Subset(alg.n, mask)
        assert (s in listed) == bool(is_strong_ideal(alg, s).is_strong)


def _power_set_filter(alg, strong):
    """The subsets the oracle calls (strong) ideals, by cardinality then elements, the order
    built from itertools alone."""
    table, keep = [list(r) for r in alg.table], oracles.is_strong_ideal if strong else oracles.is_ideal
    return [c for k in range(alg.n + 1) for c in itertools.combinations(range(alg.n), k)
            if keep(table, set(c), alg.zero)]


def _enumeration_matches_the_power_set_filter(alg):
    """Check enumerate_ideals, plain and strong, against the oracle filter in content and in
    order; the number of ideals."""
    for strong in (False, True):
        assert _sets(enumerate_ideals(alg, strong=strong)) == _power_set_filter(alg, strong), (alg, strong)
    return len(enumerate_ideals(alg))


def test_enumeration_matches_the_power_set_filter_on_fixtures_and_small_models():
    counts = [_enumeration_matches_the_power_set_filter(alg) for alg in [*BUNDLED.values(), benchmark_table("s3")]]
    for n in (1, 2, 3):
        for label in sorted(LABEL_AXIOMS):
            enumerate_algebras(SearchSpec(n=n, axiom_set=LABEL_AXIOMS[label]),
                               lambda alg: counts.append(_enumeration_matches_the_power_set_filter(alg)))
    assert len(counts) > 5 + 4 and max(counts) > 2


def test_enumeration_matches_the_power_set_filter_on_random_tables():
    rng = random.Random(24)
    # raw tables of orders 1-7 under every zero, entries drawn from {0..k-1}
    counts = [_enumeration_matches_the_power_set_filter(
                  FiniteAlgebra(n, [[rng.randrange(k) for _ in range(n)] for _ in range(n)], zero=zero))
              for n in range(1, 8) for zero in range(n) for k in (1, n)]
    assert len(set(counts)) > 2


@pytest.mark.parametrize("n, divisors", [(12, (1, 2, 3, 4, 6, 12)), (16, (1, 2, 4, 8, 16))])
def test_difference_table_ideals_are_its_subgroups(n, divisors):
    # on x*y = x - y mod n, I is an ideal iff it is an additive subgroup (a - b in I and b in I
    # give a in I; z = 0 in (3) gives (2)), so plain and strong ideals alike are one subgroup
    # per divisor d of n, the multiples of n // d, which has d elements
    zn = FiniteAlgebra(n, [[(x - y) % n for y in range(n)] for x in range(n)])
    subgroups = [tuple(range(0, n, n // d)) for d in divisors]
    assert _sets(enumerate_ideals(zn)) == _sets(enumerate_ideals(zn, strong=True)) == subgroups
