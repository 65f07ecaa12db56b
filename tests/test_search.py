"""Model enumeration, congruence enumeration, counterexample hunts."""

import itertools

import pytest
from hypothesis import given, settings

from roughalg import (
    FiniteAlgebra,
    LABEL_AXIOMS,
    Partition,
    SearchLimitError,
    SearchSpec,
    Subset,
    ValidationError,
    Z_AXIOM_VARIANTS,
    all_partitions,
    canonical_subset_pairs,
    classify,
    enumerate_algebras,
    enumerate_congruences,
    find_counterexample,
)

import oracles
from conftest import algebras

B_AXIOMS = LABEL_AXIOMS["B"]
BH_AXIOMS = LABEL_AXIOMS["BH"]
BO_AXIOMS = LABEL_AXIOMS["BO"]
Z_AXIOMS = LABEL_AXIOMS["Z"]


def _collect(spec):
    models = []
    count = enumerate_algebras(spec, models.append)
    assert count == len(models)
    return models


# ------------------------------------------------------------- partitions

def test_partition_counts_match_bell_numbers():
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        assert len(list(all_partitions(n))) == bell


def test_partition_order_single_first_discrete_last():
    parts = list(all_partitions(4))
    assert parts[0] == Partition.single(4)
    assert parts[-1] == Partition.discrete(4)
    assert len(set(parts)) == len(parts)


def test_partitions_match_oracle_set():
    got = {
        frozenset(frozenset(c) for c in p.classes) for p in all_partitions(4)
    }
    assert got == oracles.all_partitions(4)


def test_canonical_subset_pairs_order():
    pairs = list(canonical_subset_pairs(2))
    heads = [(a.elements(), b.elements()) for a, b in pairs[:4]]
    assert heads == [((), ()), ((), (0,)), ((), (1,)), ((), (0, 1))]
    assert len(pairs) == 16


# ------------------------------------------------------------- enumeration

def test_exactly_one_b_algebra_of_order_2():
    models = _collect(SearchSpec(n=2, axiom_set=B_AXIOMS))
    assert models == [FiniteAlgebra(2, [[0, 1], [1, 0]])]


def test_order_2_completeness_against_unpruned_scan():
    # the full 2^4-table scan is the independent oracle here
    for axioms, names in [(B_AXIOMS, ("C1", "C2", "C3")), (BH_AXIOMS, ("C1", "C2", "C4")),
                          (BO_AXIOMS, ("C1", "C2", "C5"))]:
        expected = []
        for vals in itertools.product(range(2), repeat=4):
            rows = [[vals[0], vals[1]], [vals[2], vals[3]]]
            if all(not oracles.axiom_violations(rows, a) for a in names):
                expected.append(FiniteAlgebra(2, rows))
        assert _collect(SearchSpec(n=2, axiom_set=axioms)) == expected


def test_order_1_has_one_model_per_label():
    for axioms in (B_AXIOMS, BH_AXIOMS, BO_AXIOMS, Z_AXIOMS):
        assert enumerate_algebras(SearchSpec(n=1, axiom_set=axioms)) == 1


def test_contradictory_axioms_have_no_models():
    # C1 and C6 pin the diagonal differently for any order above 1
    assert enumerate_algebras(SearchSpec(n=2, axiom_set=Z_AXIOMS)) == 0
    assert enumerate_algebras(SearchSpec(n=3, axiom_set=Z_AXIOMS)) == 0


def test_frozen_model_counts():
    # regression values from the first verified runs
    assert enumerate_algebras(SearchSpec(n=3, axiom_set=B_AXIOMS)) == 1
    assert enumerate_algebras(SearchSpec(n=3, axiom_set=BO_AXIOMS)) == 1
    assert enumerate_algebras(SearchSpec(n=3, axiom_set=BH_AXIOMS)) == 72
    assert enumerate_algebras(SearchSpec(n=4, axiom_set=B_AXIOMS)) == 4
    assert enumerate_algebras(SearchSpec(n=4, axiom_set=BO_AXIOMS)) == 4
    assert enumerate_algebras(SearchSpec(n=2, axiom_set=Z_AXIOM_VARIANTS["relaxed"])) == 2
    assert enumerate_algebras(SearchSpec(n=3, axiom_set=Z_AXIOM_VARIANTS["relaxed"])) == 27


def test_order_5_bo_models_include_the_fixture(bo5):
    models = _collect(SearchSpec(n=5, axiom_set=BO_AXIOMS))
    assert len(models) == 6
    assert bo5 in models


def test_emission_order_is_lexicographic():
    models = _collect(SearchSpec(n=4, axiom_set=BO_AXIOMS))
    flats = [tuple(v for row in m.table for v in row) for m in models]
    assert flats == sorted(flats)


def test_soundness_every_model_classifies():
    for label in ("B", "BH", "BO"):
        for m in _collect(SearchSpec(n=3, axiom_set=LABEL_AXIOMS[label])):
            assert label in classify(m)


def test_enumeration_is_deterministic():
    a = _collect(SearchSpec(n=3, axiom_set=BH_AXIOMS))
    b = _collect(SearchSpec(n=3, axiom_set=BH_AXIOMS))
    assert a == b


def test_model_cap():
    with pytest.raises(SearchLimitError) as exc:
        enumerate_algebras(SearchSpec(n=3, axiom_set=BH_AXIOMS, model_cap=5))
    assert exc.value.count == 5
    assert exc.value.reason == "model-cap"
    for cap in (0, -1):
        with pytest.raises(ValidationError) as exc:
            SearchSpec(n=3, axiom_set=BH_AXIOMS, model_cap=cap)
        assert exc.value.field == "model_cap"


def test_time_budget():
    with pytest.raises(SearchLimitError) as exc:
        enumerate_algebras(SearchSpec(n=4, axiom_set=BH_AXIOMS, time_budget=0.0))
    assert exc.value.reason == "time"
    for budget in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError) as exc:
            SearchSpec(n=3, axiom_set=BH_AXIOMS, time_budget=budget)
        assert exc.value.field == "time_budget"


def test_order_guard():
    with pytest.raises(ValidationError):
        enumerate_algebras(SearchSpec(n=6, axiom_set=B_AXIOMS))
    with pytest.raises(ValidationError):
        enumerate_algebras(SearchSpec(n=2, axiom_set=()))


# ------------------------------------------------------------- congruences

def test_b4_congruences(b4):
    congs = enumerate_congruences(b4)
    expected = [
        Partition.single(4),
        Partition(4, [[0, 1], [2, 3]]),
        Partition(4, [[0, 2], [1, 3]]),
        Partition(4, [[0, 3], [1, 2]]),
        Partition.discrete(4),
    ]
    assert congs == expected


def test_bo5_congruences(bo5):
    assert enumerate_congruences(bo5) == [Partition.single(5), Partition.discrete(5)]


def test_bh4_congruences(bh4):
    assert enumerate_congruences(bh4) == [
        Partition.single(4),
        Partition(4, [[0, 1], [2], [3]]),
        Partition.discrete(4),
    ]


@given(algebras(4))
@settings(max_examples=25)
def test_congruences_contain_trivial_partitions(alg):
    congs = enumerate_congruences(alg)
    assert Partition.single(alg.n) in congs
    assert Partition.discrete(alg.n) in congs


def test_congruence_guard():
    big = FiniteAlgebra(7, [[0] * 7] * 7)
    with pytest.raises(ValidationError):
        enumerate_congruences(big)


# ------------------------------------------------------------- hunts

def test_theorem_targets_yield_no_finding():
    assert find_counterexample(SearchSpec(n=3, axiom_set=B_AXIOMS, target="2-1:1")) is None
    assert find_counterexample(SearchSpec(n=3, axiom_set=B_AXIOMS, target="2-1:7")) is None
    assert find_counterexample(SearchSpec(n=3, axiom_set=B_AXIOMS, target="3-1:4")) is None


def test_upper_product_law_has_no_counterexample_over_fixtures(b4, bo5, bh4):
    for alg in (b4, bo5, bh4):
        spec = SearchSpec(n=alg.n, target="3-2:1", algebras=(alg,))
        assert find_counterexample(spec) is None


def test_lower_product_law_safe_under_complete_congruences(b4, bo5, bh4):
    for alg in (b4, bo5, bh4):
        spec = SearchSpec(n=alg.n, target="3-2:2-complete", algebras=(alg,))
        assert find_counterexample(spec) is None


def test_lower_product_law_fails_under_incomplete_congruence(bh4):
    # frozen first finding of the fixture sweep
    finding = find_counterexample(SearchSpec(n=4, target="3-2:2-incomplete", algebras=(bh4,)))
    assert finding is not None
    assert finding.partition == Partition(4, [[0, 1], [2], [3]])
    assert finding.subset_a == Subset.from_elements(4, [2])
    assert finding.subset_b == Subset.from_elements(4, [0, 2])
    assert finding.witness == (0,)
    assert finding.note == "congruence, not complete"


def test_no_incomplete_congruences_on_group_like_fixtures(b4, bo5):
    for alg in (b4, bo5):
        spec = SearchSpec(n=alg.n, target="3-2:2-incomplete", algebras=(alg,))
        assert find_counterexample(spec) is None


def test_upper_equality_reverse_direction_fails_on_bh4(b4, bo5, bh4):
    # item 11 as an equality is NOT a theorem: the reverse inclusion breaks
    for alg in (b4, bo5):
        assert find_counterexample(
            SearchSpec(n=alg.n, target="2-1:11b", algebras=(alg,))) is None
    finding = find_counterexample(SearchSpec(n=4, target="2-1:11b", algebras=(bh4,)))
    assert finding is not None
    assert finding.partition == Partition(4, [[0, 1], [2], [3]])
    assert finding.subset_a == Subset.from_elements(4, [0])
    assert finding.subset_b == Subset.from_elements(4, [2])
    assert finding.witness == (1,)


def test_hunt_over_enumerated_models():
    finding = find_counterexample(SearchSpec(n=3, axiom_set=BH_AXIOMS, target="3-2:2-incomplete"))
    assert finding is not None
    assert "not complete" in finding.note
    # the finding must reproduce: re-evaluate the law at the witness site
    from roughalg import ApproximationSpace, lower, product_set

    space = ApproximationSpace(partition=finding.partition, algebra=finding.algebra)
    ab = product_set(finding.algebra, finding.subset_a, finding.subset_b)
    lab = lower(space, ab)
    prod = product_set(
        finding.algebra, lower(space, finding.subset_a), lower(space, finding.subset_b)
    )
    assert lab
    assert finding.witness[0] in prod
    assert finding.witness[0] not in lab


def test_hunts_are_deterministic(bh4):
    spec = SearchSpec(n=4, target="2-1:11b", algebras=(bh4,))
    assert find_counterexample(spec) == find_counterexample(spec)


def test_unknown_target_rejected():
    with pytest.raises(ValidationError):
        find_counterexample(SearchSpec(n=3, axiom_set=B_AXIOMS, target="9-9:1"))


def test_hunt_time_budget(bh4):
    with pytest.raises(SearchLimitError):
        find_counterexample(
            SearchSpec(n=4, target="2-1:11b", algebras=(bh4,), time_budget=0.0)
        )


def test_fixed_algebra_order_mismatch(bh4):
    with pytest.raises(ValidationError):
        find_counterexample(SearchSpec(n=5, target="3-2:1", algebras=(bh4,)))
