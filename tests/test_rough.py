"""Approximation operators and the law-suite checkers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roughalg import (
    Partition,
    PreconditionError,
    SetValuedMap,
    Subset,
    ValidationError,
    all_partitions,
    check_approx_laws,
    check_basic_laws,
    check_congruence_product_laws,
    is_complete_congruence,
    is_equivalence,
    lower,
    to_partition,
    upper,
)

import oracles
from conftest import algebras, partitions, subsets


def _s(*elems, n=5):
    return Subset.from_elements(n, elems)


# ------------------------------------------------------------- lower / upper

def test_lower_examples(worked_partition):
    assert lower(worked_partition, _s(0, 1)) == _s(0, 1)
    assert lower(worked_partition, _s()) == _s()
    assert lower(worked_partition, _s(0, 1, 2, 3)) == _s(0, 1, 2, 3)
    assert lower(worked_partition, _s(0, 2)) == _s(2)
    assert lower(worked_partition, _s(0, 3)) == _s(3)


def test_upper_examples(worked_partition):
    assert upper(worked_partition, _s(0)) == _s(0, 1)
    assert upper(worked_partition, _s(1, 2, 3)) == _s(0, 1, 2, 3)
    assert upper(worked_partition, Subset.universe(5)) == Subset.universe(5)
    assert upper(worked_partition, _s(0, 2, 3)) == _s(0, 1, 2, 3)
    assert upper(worked_partition, _s(1, 2, 3, 4)) == Subset.universe(5)


def test_upper_of_single_whole_class_is_itself(worked_partition):
    # regression fixture: {2} is a whole class, so both approximations fix it
    assert upper(worked_partition, _s(2)) == _s(2)
    assert lower(worked_partition, _s(2)) == _s(2)


def test_boundary_and_roughness(worked_partition):
    # lower({0}) is empty since the class {0,1} is not inside {0}: {0} is rough
    p = worked_partition
    assert upper(p, _s(0)) - lower(p, _s(0)) == _s(0, 1)
    assert upper(p, _s(0, 1)) - lower(p, _s(0, 1)) == _s()


def test_union_of_classes_is_definable(worked_partition):
    p = worked_partition
    assert upper(p, _s(0, 1, 3)) - lower(p, _s(0, 1, 3)) == _s()


def test_discrete_partition_makes_everything_definable():
    p = Partition.discrete(4)
    for mask in range(16):
        a = Subset(4, mask)
        assert lower(p, a) == upper(p, a) == a


def test_rough_pair_examples(worked_partition):
    p = worked_partition
    assert (lower(p, _s(0, 1)), upper(p, _s(0, 1))) == (_s(0, 1), _s(0, 1))
    assert (lower(p, _s()), upper(p, _s())) == (_s(), _s())
    assert (lower(p, _s(2)), upper(p, _s(2))) == (_s(2), _s(2))


def test_space_validates_carriers(bh4):
    s3 = Subset.empty(3)
    with pytest.raises(ValidationError, match="algebra carrier 4 does not match partition carrier 3"):
        check_approx_laws(Partition.discrete(3), s3, s3, bh4)
    with pytest.raises(ValidationError, match="subset carrier 4 does not match partition carrier 3"):
        check_approx_laws(Partition.discrete(3), s3, Subset.empty(4))
    with pytest.raises(ValidationError, match="subset carrier 3 does not match partition carrier 4"):
        check_basic_laws(Partition.discrete(4), s3, s3)
    with pytest.raises(ValidationError, match="subset carrier 3 does not match partition carrier 4"):
        check_congruence_product_laws(bh4, Partition.single(4), Subset.empty(4), s3)


def test_lower_upper_match_oracle():
    # every partition of order <= 5 is its class map, and every subset's approximations are Pawlak's
    for n in range(1, 6):
        for classes in oracles.rgs_partitions(n):
            p = Partition(n, classes)
            class_masks = tuple(sum(1 << y for y in oracles.class_of(classes, x)) for x in range(n))
            assert p.masks == class_masks
            f = SetValuedMap(n, n, p.images)
            assert p == f and f == p and hash(p) == hash(f)
            assert is_equivalence(p).holds
            assert to_partition(p) == p
            for mask in range(1 << n):
                a = Subset(n, mask)
                assert set(lower(p, a)) == oracles.naive_lower(classes, set(a)), (classes, mask)
                assert set(upper(p, a)) == oracles.naive_upper(classes, set(a)), (classes, mask)


@given(st.integers(1, 5).flatmap(partitions), st.data())
def test_bounds_duality_idempotence(p, data):
    a = data.draw(subsets(p.n))
    lo, hi = lower(p, a), upper(p, a)
    assert lo.issubset(a) and a.issubset(hi)
    assert upper(p, a.complement()) == lo.complement()
    assert lower(p, a.complement()) == hi.complement()
    assert lower(p, lo) == lo and upper(p, lo) == lo
    assert upper(p, hi) == hi and lower(p, hi) == hi


def test_definable_iff_union_of_classes():
    for p in all_partitions(4):
        for mask in range(16):
            a = Subset(4, mask)
            union_of_classes = all(c.issubset(a) or c.isdisjoint(a) for c in p.classes)
            assert (upper(p, a) - lower(p, a) == Subset.empty(4)) == union_of_classes


# ------------------------------------------------------------- law suites

def test_laws_on_empty_sets_pass(worked_partition):
    results = check_approx_laws(worked_partition, _s(), _s())
    for r in results:
        if r.law in {str(i) for i in range(1, 11)}:
            assert r.holds, r


def test_law_ids_present(worked_partition):
    ids = [r.law for r in check_approx_laws(worked_partition, _s(0), _s(2))]
    assert ids == ["1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11a", "11b", "12"]


def test_duality_law_instance(worked_partition):
    results = {r.law: r for r in check_approx_laws(worked_partition, _s(0), _s(2))}
    assert results["7"].holds
    # cross-check by hand: upper of the complement of {0} is everything
    assert upper(worked_partition, _s(0).complement()) == Subset.universe(5)
    assert lower(worked_partition, _s(0)) == _s()


def test_product_laws_not_applicable_without_algebra(worked_partition):
    results = {r.law: r for r in check_approx_laws(worked_partition, _s(0), _s(2))}
    for law in ("11a", "11b", "12"):
        assert results[law].holds is None
        assert "algebra" in results[law].note


def test_product_law_upper_inclusion_on_bh4(bh4):
    # single-class partition: both sides of 11a are the whole carrier
    a, b = Subset.from_elements(4, [0, 1]), Subset.from_elements(4, [0])
    results = {r.law: r for r in check_approx_laws(Partition.single(4), a, b, bh4)}
    assert results["11a"].holds
    assert "complete congruence" in results["11a"].note


def test_congruence_note_reports_incompleteness(bh4):
    p = Partition(4, [[0, 1], [2], [3]])
    results = {r.law: r for r in check_approx_laws(p, Subset(4, 0), Subset(4, 0), bh4)}
    assert results["12"].note == "partition is a congruence of the algebra, but not complete"


def test_basic_laws_monotonicity(worked_partition):
    results = {r.law: r for r in check_basic_laws(worked_partition, _s(0), _s(0, 1, 2))}
    assert results["4"].holds
    # premise not satisfied: vacuously true, flagged in the note
    results = {r.law: r for r in check_basic_laws(worked_partition, _s(3), _s(0))}
    assert results["4"].holds and "premise" in results["4"].note


def test_basic_laws_collapse_when_equal(worked_partition):
    results = check_basic_laws(worked_partition, _s(0, 2), _s(0, 2))
    assert all(r.holds for r in results)


def test_basic_law5_strict_inclusion_case(worked_partition):
    # lower({0}) | lower({1}) is empty, lower({0,1}) is the whole class
    results = {r.law: r for r in check_basic_laws(worked_partition, _s(0), _s(1))}
    assert results["5"].holds
    assert lower(worked_partition, _s(0)) | lower(worked_partition, _s(1)) == _s()
    assert lower(worked_partition, _s(0, 1)) == _s(0, 1)


@given(st.integers(1, 4).flatmap(partitions), st.data())
def test_basic_laws_always_hold(p, data):
    a = data.draw(subsets(p.n))
    b = data.draw(subsets(p.n))
    assert all(r.holds for r in check_basic_laws(p, a, b))


# ------------------------------------------------- congruence product laws

def test_discrete_partition_trivializes_product_laws(bo5):
    p = Partition.discrete(5)
    a, b = Subset.from_elements(5, [0, 3]), Subset.from_elements(5, [1])
    results = check_congruence_product_laws(bo5, p, a, b)
    assert [r.law for r in results] == ["product-upper", "product-lower"]
    upper_law, lower_law = results
    assert upper_law.holds
    assert lower_law.holds
    assert is_complete_congruence(bo5, p).holds


def test_single_class_on_bh4_part1(bh4):
    p = Partition.single(4)
    upper_law, _ = check_congruence_product_laws(
        bh4, p, Subset.from_elements(4, [0, 1]), Subset.from_elements(4, [0, 2])
    )
    assert upper_law.holds
    assert is_complete_congruence(bh4, p).holds


def test_non_congruence_is_rejected(bo5, worked_partition):
    with pytest.raises(PreconditionError) as exc:
        check_congruence_product_laws(
            bo5, worked_partition, Subset.empty(5), Subset.empty(5)
        )
    assert exc.value.witness == (0, 1, 0, "left")


def test_incomplete_congruence_lower_law_failure(bh4):
    # frozen counterexample: A={2}, B={0,2} under the non-complete congruence
    p = Partition(4, [[0, 1], [2], [3]])
    a, b = Subset.from_elements(4, [2]), Subset.from_elements(4, [0, 2])
    upper_law, lower_law = check_congruence_product_laws(bh4, p, a, b)
    assert not is_complete_congruence(bh4, p).holds
    assert upper_law.holds
    assert lower_law.holds is False
    assert lower_law.witness == (0,)


def test_lower_law_guard(bh4):
    # A*B = {0} and lower({0}) is empty under this congruence: guard skips
    p = Partition(4, [[0, 1], [2], [3]])
    a = b = Subset.from_elements(4, [2])
    _, lower_law = check_congruence_product_laws(bh4, p, a, b)
    assert lower_law.holds is None
    assert "guard" in lower_law.note


@given(algebras(4), st.data())
def test_upper_product_law_holds_under_any_congruence(alg, data):
    from roughalg import is_congruence

    p = data.draw(partitions(alg.n))
    if not is_congruence(alg, p).holds:
        return
    a = data.draw(subsets(alg.n))
    b = data.draw(subsets(alg.n))
    upper_law, lower_law = check_congruence_product_laws(alg, p, a, b)
    assert upper_law.holds
    if is_complete_congruence(alg, p).holds and lower_law.holds is not None:
        assert lower_law.holds
