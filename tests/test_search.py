"""Model enumeration, congruence enumeration, counterexample hunts."""

import functools
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings

from roughalg import (
    AxiomId,
    FiniteAlgebra,
    LABEL_AXIOMS,
    Partition,
    SearchLimitError,
    SearchSpec,
    Subset,
    ValidationError,
    Z_AXIOM_VARIANTS,
    all_partitions,
    classify,
    enumerate_algebras,
    enumerate_congruences,
    find_counterexample,
    is_complete_congruence,
    sweep_laws,
)
from roughalg import search
from roughalg.rough import _Carrier
from roughalg.search import TARGETS

import oracles
from conftest import BUNDLED, algebras, benchmark_table, count_congruence_checks

B_AXIOMS = LABEL_AXIOMS["B"]
BH_AXIOMS = LABEL_AXIOMS["BH"]
BO_AXIOMS = LABEL_AXIOMS["BO"]
Z_AXIOMS = LABEL_AXIOMS["Z"]


def _collect(spec):
    models = []
    count = enumerate_algebras(spec, models.append)
    assert count == len(models)
    return models


def _fixture_hunt(alg, target):
    """The first finding of a target over the congruences of one algebra, by the hunt's own sweep."""
    return search._sweep_partitions(alg, _Carrier(alg.n, list(all_partitions(alg.n))), target, None)


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


@functools.cache
def _rgs_partitions(n):
    """The oracle's partitions of {0..n-1} in restricted-growth-string order, as (classes, rgs)."""
    return [(classes, tuple(next(i for i, c in enumerate(classes) if x in c) for x in range(n)))
            for classes in oracles.rgs_partitions(n)]


def test_rgs_order_is_the_oracle_order():
    for n in range(1, 7):
        expected = [rgs for _, rgs in _rgs_partitions(n)]
        assert search._rgs(n) == expected
        assert [p.class_index for p in all_partitions(n)] == expected


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


_AXIOM_SETS = {**LABEL_AXIOMS, "Z-relaxed": Z_AXIOM_VARIANTS["relaxed"]}


def _expect(models):
    """A sink that checks each model it gets against the next of an iterator of tables, and
    against the validated construction of its table: the search emits without validating."""
    def sink(alg):
        assert alg.table == next(models, None)
        assert alg == FiniteAlgebra(alg.n, alg.table) and alg.zero == 0
    return sink


@pytest.mark.parametrize("label", sorted(_AXIOM_SETS))
def test_models_match_a_full_rescan_search(label):
    # the search assigns the cells that the instances reading a set cell force, and checks only
    # those instances; the reference search tries every value of every cell and re-checks every
    # instance of every axiom after each assignment
    axioms = _AXIOM_SETS[label]
    for n in range(1, {"B": 6, "BO": 7}.get(label, 5)):
        reference = oracles.search_models(n, [a.name for a in axioms])
        enumerate_algebras(SearchSpec(n=n, axiom_set=axioms, max_order=6), _expect(reference))
        assert next(reference, None) is None, (label, n)


def test_capped_models_match_a_full_rescan_search():
    expected = list(itertools.islice(oracles.search_models(5, ["C1", "C2", "C4"]), 10_000))
    models = iter(expected)
    with pytest.raises(SearchLimitError) as exc:
        enumerate_algebras(SearchSpec(n=5, axiom_set=BH_AXIOMS, model_cap=10_000), _expect(models))
    assert exc.value.count == len(expected) == 10_000
    assert next(models, None) is None


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


# the groups of order 1-9 up to isomorphism: name -> (order, |Aut G|, abelian)
_GROUPS = {"Z1": (1, 1, True), "Z2": (2, 1, True), "Z3": (3, 2, True), "Z4": (4, 2, True),
           "Z2^2": (4, 6, True), "Z5": (5, 4, True), "Z6": (6, 2, True), "S3": (6, 6, False),
           "Z7": (7, 6, True), "Z8": (8, 4, True), "Z4xZ2": (8, 8, True), "Z2^3": (8, 168, True),
           "D4": (8, 8, False), "Q8": (8, 24, False), "Z9": (9, 6, True), "Z3^2": (9, 48, True)}


def test_model_counts_are_derived_without_the_search():
    # A B-algebra is a group with x*y = x.(0*y), 0 the identity and 0*y the inverse of y, where
    # x.y = x*(0*y); a BO-algebra is an abelian one.  A group G of order n has (n-1)!/|Aut G|
    # tables on {0..n-1} with identity 0.  A BH-algebra has its diagonal 0 and its column 0 the
    # identity; each 0*y is free, and each {x, y} of distinct nonzero x, y takes any (x*y, y*x)
    # but (0, 0).  CI counts orders 8 and 9, and checks the group of each order-8 model.
    def groups(n, abelian_only):
        return sum(math.factorial(n - 1) // aut for order, aut, abelian in _GROUPS.values()
                   if order == n and (abelian or not abelian_only))

    assert [groups(n, False) for n in range(1, 10)] == [1, 1, 1, 4, 6, 80, 120, 2760, 7560]
    assert [groups(n, True) for n in range(1, 10)] == [1, 1, 1, 4, 6, 60, 120, 1920, 7560]
    for n, label in itertools.product(range(1, 8), ("B", "BO")):
        models = _collect(SearchSpec(n=n, axiom_set=LABEL_AXIOMS[label], max_order=7))
        assert len(models) == groups(n, label == "BO"), (label, n)
        assert all(oracles.is_group_division(alg.table, label == "BO") for alg in models), (label, n)
    for n in range(1, 5):
        assert enumerate_algebras(SearchSpec(n=n, axiom_set=BH_AXIOMS)) == \
            n ** (n - 1) * (n * n - 1) ** math.comb(n - 1, 2)


def test_forced_cells_are_what_the_one_variable_axioms_allow():
    # the search pins these cells and never checks C1, C2 or C6 again: the completions of the
    # forced table are exactly the tables that satisfy them, and None means that none does
    one_variable = [a for a in AxiomId if a.arity == 1]
    for n, zero in ((1, 0), (2, 0), (2, 1), (3, 0)):
        tables = [[list(cells[i * n:(i + 1) * n]) for i in range(n)]
                  for cells in itertools.product(range(n), repeat=n * n)]
        for k in (1, 2, 3):
            for axioms in itertools.combinations(one_variable, k):
                forced = search._forced_cells(n, axioms, zero)
                allowed = [t for t in tables
                           if not any(oracles.axiom_violations(t, a.name, zero) for a in axioms)]
                completions = [] if forced is None else [
                    t for t in tables if all(f in (-1, v) for fr, tr in zip(forced, t) for f, v in zip(fr, tr))]
                assert allowed == completions, (n, zero, axioms)


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


@pytest.mark.parametrize("field,value", [("n", True), ("n", 2.0), ("model_cap", 1.5),
                                         ("model_cap", True), ("max_order", 5.0)])
def test_spec_integers_must_be_ints(field, value):
    # SearchSpec(n=True) used to run an order-1 search, and a fractional model cap was accepted
    with pytest.raises(ValidationError) as exc:
        SearchSpec(**{"n": 2, "axiom_set": BH_AXIOMS, field: value})
    assert exc.value.field == field


@pytest.mark.parametrize("axioms", [("C1",), (AxiomId.C1, "C2"), [AxiomId.C1, AxiomId.C2], "C1", None])
def test_spec_axioms_must_be_a_tuple_of_axiom_ids(axioms):
    # SearchSpec(axiom_set=("C1",)) used to build, and the search then failed on str.pin; a list
    # made the frozen spec unhashable
    with pytest.raises(ValidationError) as exc:
        SearchSpec(n=2, axiom_set=axioms)
    assert exc.value.field == "axiom_set"


def test_time_budget():
    with pytest.raises(SearchLimitError) as exc:
        enumerate_algebras(SearchSpec(n=4, axiom_set=BH_AXIOMS, time_budget=0.0))
    assert exc.value.reason == "time"
    # a bool, a non-number and an int too large for a float: the deadline adds the budget to a float
    for budget in (-1.0, float("nan"), float("inf"), True, "1", 10**400):
        with pytest.raises(ValidationError) as exc:
            SearchSpec(n=3, axiom_set=BH_AXIOMS, time_budget=budget)
        assert exc.value.field == "time_budget"
    assert enumerate_algebras(SearchSpec(n=3, axiom_set=BH_AXIOMS, time_budget=10**300)) > 0


def test_order_guard():
    with pytest.raises(ValidationError):
        enumerate_algebras(SearchSpec(n=6, axiom_set=B_AXIOMS))
    with pytest.raises(ValidationError):
        enumerate_algebras(SearchSpec(n=2, axiom_set=()))
    # hunts whose laws ignore the algebra sweep every partition of order n: Bell(9) x 4^9 pairs
    for target in ("2-1:1", "3-1:3"):
        with pytest.raises(ValidationError) as exc:
            find_counterexample(SearchSpec(n=9, axiom_set=B_AXIOMS, time_budget=1), target)
        assert exc.value.field == "n"
    for n in (0, 6):
        with pytest.raises(ValidationError) as exc:
            SearchSpec(n=n, axiom_set=B_AXIOMS)
        assert exc.value.field == "n"
    # an algebra above the search limit is swept over its congruences directly
    z6 = FiniteAlgebra(6, [[(x - y) % 6 for y in range(6)] for x in range(6)])
    assert _fixture_hunt(z6, "3-2:1") is None


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


@functools.cache
def _related_pairs(n):
    return oracles.rgs_related_pairs(n)


def _congruences_match_the_rgs_filter(alg, full=False):
    """Check enumerate_congruences(alg) against the oracle filter over every restricted-growth
    string, in content and in order, which reads each string's related pairs only; with full,
    check that filter against the full scan of oracles.is_congruence too.  The number of
    congruences."""
    expected = oracles.congruent_rgs(alg.table, _related_pairs(alg.n))
    if full:
        assert expected == [rgs for classes, rgs in _rgs_partitions(alg.n)
                            if oracles.is_congruence(alg.table, classes)], alg
    assert [p.class_index for p in enumerate_congruences(alg)] == expected, alg
    return len(expected)


@pytest.mark.parametrize("label", sorted(LABEL_AXIOMS))
def test_congruences_match_the_rgs_filter_on_every_small_model(label):
    # every model has the single-class and discrete congruences, one and the same at order 1;
    # the related-pairs filter is checked against the full scan on all but the 216,000 BH4 models
    counts = []
    for n in (1, 2, 3, 4):
        spec, full = SearchSpec(n=n, axiom_set=LABEL_AXIOMS[label]), n < 4 or label != "BH"
        enumerate_algebras(spec, lambda alg: counts.append(_congruences_match_the_rgs_filter(alg, full)))
    assert counts[0] == 1 and all(c >= 2 for c in counts[1:])


def test_congruences_match_the_rgs_filter_on_fixed_and_random_tables():
    rng = random.Random(20)
    # raw tables of orders 1-6 whose entries lie in {0..k-1}: a small k plants more congruences
    randoms = [FiniteAlgebra(n, [[rng.randrange(k) for _ in range(n)] for _ in range(n)])
               for n in range(1, 7) for k in range(1, n + 1) for _ in range(8)]
    counts = [_congruences_match_the_rgs_filter(alg, full=True)
              for alg in [*BUNDLED.values(), benchmark_table("s3"), *randoms]]
    assert len(set(counts)) > 8  # from the two trivial congruences alone to all 203
    # every partition is a congruence of a constant or a projection table: Bell(5) = 52, Bell(6) = 203
    for n, bell in ((5, 52), (6, 203)):
        for t in ([[0] * n] * n, [[x] * n for x in range(n)], [list(range(n))] * n):
            assert _congruences_match_the_rgs_filter(FiniteAlgebra(n, t), full=True) == bell


def test_congruence_guard():
    big = FiniteAlgebra(7, [[0] * 7] * 7)
    with pytest.raises(ValidationError) as exc:
        enumerate_congruences(big)
    assert str(exc.value) == f"carrier size 7 exceeds congruence enumeration limit {search.PARTITION_ORDER_LIMIT}"


# ------------------------------------------------------------- hunts

def test_theorem_targets_yield_no_finding():
    spec = SearchSpec(n=3, axiom_set=B_AXIOMS)
    assert find_counterexample(spec, "2-1:1") is None
    assert find_counterexample(spec, "2-1:7") is None
    assert find_counterexample(spec, "3-1:4") is None


def test_upper_product_law_has_no_counterexample_over_fixtures(b4, bo5, bh4):
    for alg in (b4, bo5, bh4):
        assert _fixture_hunt(alg, "3-2:1") is None


def test_lower_product_law_safe_under_complete_congruences(b4, bo5, bh4):
    for alg in (b4, bo5, bh4):
        assert _fixture_hunt(alg, "3-2:2-complete") is None


def test_lower_product_law_fails_under_incomplete_congruence(bh4):
    # frozen first finding of the fixture sweep
    finding = _fixture_hunt(bh4, "3-2:2-incomplete")
    assert finding is not None
    assert finding.partition == Partition(4, [[0, 1], [2], [3]])
    assert finding.a == Subset.from_elements(4, [2])
    assert finding.b == Subset.from_elements(4, [0, 2])
    assert finding.witness == (0,)
    assert finding.note == "congruence, not complete"


def test_no_incomplete_congruences_on_group_like_fixtures(b4, bo5):
    for alg in (b4, bo5):
        assert _fixture_hunt(alg, "3-2:2-incomplete") is None


def test_upper_equality_reverse_direction_fails_on_bh4(b4, bo5, bh4):
    # item 11 as an equality is NOT a theorem: the reverse inclusion breaks
    for alg in (b4, bo5):
        assert _fixture_hunt(alg, "2-1:11b") is None
    finding = _fixture_hunt(bh4, "2-1:11b")
    assert finding is not None
    assert finding.partition == Partition(4, [[0, 1], [2], [3]])
    assert finding.a == Subset.from_elements(4, [0])
    assert finding.b == Subset.from_elements(4, [2])
    assert finding.witness == (1,)


def _first_failures(suite, partitions, alg):
    """law -> (partition, A, B, witness) of its first failure in one sweep_laws, in sweep order."""
    if not partitions:
        return {}
    sweep = sweep_laws(suite, partitions, alg)
    # a law gated under complete congruences only has a first failure in each role
    failures = [t.first_failure for tallies in (sweep.gated, sweep.measured)
                for t in tallies.values() if t.first_failure]
    firsts = {}
    for f in sorted(failures, key=lambda f: (partitions.index(f.partition), f.a.sort_key, f.b.sort_key)):
        firsts.setdefault(f.law, (f.partition, f.a, f.b, f.witness))
    return firsts


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_hunt_agrees_with_the_full_sweep(name):
    # a hunt's finding is its law's first failure in one sweep_laws over the congruences,
    # those of the target's completeness when it names one
    alg = BUNDLED[name]
    congruences = enumerate_congruences(alg)
    firsts = {}
    for target, (suite, law, complete, needs_algebra) in TARGETS.items():
        if not needs_algebra:
            continue
        if (suite, complete) not in firsts:
            partitions = [p for p in congruences
                          if complete is None or is_complete_congruence(alg, p).holds == complete]
            firsts[suite, complete] = _first_failures(suite, partitions, alg)
        f = _fixture_hunt(alg, target)
        assert (f and (f.partition, f.a, f.b, f.witness)) == firsts[suite, complete].get(law), target


def test_hunt_over_enumerated_models():
    finding = find_counterexample(SearchSpec(n=3, axiom_set=BH_AXIOMS), "3-2:2-incomplete")
    assert finding is not None
    assert "not complete" in finding.note
    # the finding must reproduce: re-evaluate the law at the witness site
    from roughalg import lower, product_set

    p = finding.partition
    ab = product_set(finding.algebra, finding.a, finding.b)
    lab = lower(p, ab)
    prod = product_set(finding.algebra, lower(p, finding.a), lower(p, finding.b))
    assert lab
    assert finding.witness[0] in prod
    assert finding.witness[0] not in lab


def test_hunt_makes_no_congruence_check(monkeypatch):
    # a hunt reads each partition's congruence verdict from its product table; BH3 3-2:1
    # sweeps every partition of one model per isomorphism class and finds nothing, and the
    # BH4 2-1:12 finding is described by the same verdict
    seen = count_congruence_checks(monkeypatch)
    assert find_counterexample(SearchSpec(n=3, axiom_set=BH_AXIOMS), "3-2:1") is None
    finding = find_counterexample(SearchSpec(n=4, axiom_set=BH_AXIOMS), "2-1:12")
    assert finding.note == "congruence, not complete"
    assert seen == []
    # the count is live: the library's own completeness check first checks congruence
    assert not is_complete_congruence(finding.algebra, finding.partition).holds
    assert seen == [finding.partition]


def test_hunts_are_deterministic():
    spec = SearchSpec(n=4, axiom_set=BH_AXIOMS)
    assert find_counterexample(spec, "2-1:11b") == find_counterexample(spec, "2-1:11b")


def test_unknown_target_rejected():
    with pytest.raises(ValidationError):
        find_counterexample(SearchSpec(n=3, axiom_set=B_AXIOMS), "9-9:1")


def test_hunt_time_budget():
    with pytest.raises(SearchLimitError):
        find_counterexample(SearchSpec(n=4, axiom_set=BH_AXIOMS, time_budget=0.0), "2-1:11b")


# ------------------------------------------------------------- limit counts

def test_hunt_deadline_stops_inside_one_algebra(b4, monkeypatch):
    # the first B4 model is b4 with its 5 congruences; the clock expires once the laws are
    # evaluated on 2 of them, and the sweep reads it before each congruence, so the third is
    # never reached; the sweep's TimeoutError becomes a SearchLimitError counting no algebra
    assert _collect(SearchSpec(n=4, axiom_set=B_AXIOMS))[0] == b4
    original, swept = _Carrier.values, []

    def counted(self, i, *args):
        swept.append(self.partitions[i])
        return original(self, i, *args)

    monkeypatch.setattr(_Carrier, "values", counted)
    monkeypatch.setattr(time, "monotonic", lambda: 0.0 if len(swept) < 2 else 1e9)
    spec = SearchSpec(n=4, axiom_set=B_AXIOMS, time_budget=1.0)
    with pytest.raises(SearchLimitError) as exc:
        find_counterexample(spec, "3-2:1")
    assert (exc.value.count, exc.value.reason) == (0, "time")
    assert swept == enumerate_congruences(b4)[:2]


def test_hunt_limit_counts_the_algebras_swept(monkeypatch):
    # the clock expires once the third algebra swept has its partitions swept.  That is
    # BH3 model 3: model 2 is model 1 with 1 and 2 swapped, so it is skipped and counted
    original, sweeps = search._sweep_partitions, []

    def counted(alg, carrier, target, deadline):
        sweeps.append(alg)
        return original(alg, carrier, target, deadline)

    monkeypatch.setattr(search, "_sweep_partitions", counted)
    monkeypatch.setattr(time, "monotonic", lambda: 0.0 if len(sweeps) < 3 else 1e9)
    spec = SearchSpec(n=3, axiom_set=BH_AXIOMS, time_budget=1.0)
    with pytest.raises(SearchLimitError) as exc:
        find_counterexample(spec, "3-2:1")
    assert (exc.value.count, exc.value.reason) == (3, "time")
    assert len(sweeps) == 3
    models = [alg.table for alg in _collect(SearchSpec(n=3, axiom_set=BH_AXIOMS))]
    assert [alg.table for alg in sweeps] == [models[0], models[1], models[3]]
    assert oracles.relabel(models[1], (0, 2, 1)) == [list(row) for row in models[2]]


@pytest.mark.parametrize("n,target,swept,bell", [(3, "3-2:1", 39, 5), (4, "2-1:12", 9, 15)])
def test_hunt_builds_its_partitions_once(monkeypatch, n, target, swept, bell):
    # the partitions do not depend on the algebra: a hunt builds all Bell(n) of them once,
    # each from its restricted-growth string, and validates none
    original_init, original_sweep = Partition.__init__, search._sweep_partitions
    original_from_rgs = Partition._from_rgs
    built, validated, sweeps = [], [], []

    def counted_init(self, *args):
        validated.append(args)
        original_init(self, *args)

    def counted_from_rgs(cls, rgs):
        built.append(rgs)
        return original_from_rgs(rgs)

    def counted_sweep(alg, *args):
        sweeps.append(alg)
        return original_sweep(alg, *args)

    monkeypatch.setattr(Partition, "__init__", counted_init)
    monkeypatch.setattr(Partition, "_from_rgs", classmethod(counted_from_rgs))
    monkeypatch.setattr(search, "_sweep_partitions", counted_sweep)
    find_counterexample(SearchSpec(n=n, axiom_set=BH_AXIOMS), target)
    assert len(sweeps) == swept
    assert len(built) == bell
    assert validated == []


def test_hunt_above_the_partition_guard_fails_at_its_first_model(monkeypatch):
    # the guard reads the first model to sweep, so a model stream with none raises nothing
    original, models = search._tables, []

    def counted(spec, deadline):
        for t in original(spec, deadline):
            models.append(t)
            yield t

    monkeypatch.setattr(search, "_tables", counted)
    with pytest.raises(ValidationError) as exc:
        find_counterexample(SearchSpec(n=7, axiom_set=BH_AXIOMS, max_order=7), "3-2:1")
    assert str(exc.value) == f"carrier size 7 exceeds congruence enumeration limit {search.PARTITION_ORDER_LIMIT}"
    assert len(models) == 1


@pytest.mark.parametrize("n,label", [(n, label) for n in (1, 2, 3) for label in LABEL_AXIOMS]
                         + [(4, "B"), (4, "BO"), (5, "B"), (5, "BO")])
def test_hunt_matches_naive_hunt(n, label):
    spec = SearchSpec(n=n, axiom_set=LABEL_AXIOMS[label])
    models = _collect(spec)
    # at order 5 only the laws that read the models: the others sweep no algebra to skip
    for target in (t for t in TARGETS if n < 5 or TARGETS[t].needs_algebra):
        f = find_counterexample(spec, target)
        got = f and (f.witness, f.algebra, tuple(c.elements() for c in f.partition.classes),
                     f.a.elements(), f.b.elements(), f.note)
        assert got == oracles.naive_hunt(models, n, target), target


# ------------------------------------------------------------- isomorphic copies

def _orbit_cases():
    yield from ((n, label) for n in (1, 2, 3) for label in LABEL_AXIOMS)
    yield from ((n, label) for n in (4, 5, 6) for label in ("B", "BO"))


@pytest.mark.parametrize("n,label", list(_orbit_cases()))
def test_least_in_orbit_matches_oracle(n, label):
    least = search._least_in_orbit(n)
    spec = SearchSpec(n=n, axiom_set=LABEL_AXIOMS[label], max_order=6)
    for t in search._tables(spec, None):
        assert least(t) == oracles.is_least_relabelling(t), t


def test_orbit_counts():
    # Burnside over the relabellings that fix 0 of BH4: the identity fixes all 216,000
    # models, each transposition 8 * 3 * 15 = 360 and each 3-cycle 4 * 15 = 60, so the
    # classes number (216,000 + 3 * 360 + 2 * 60) / 6 = 36,200
    for n, label, classes in ((3, "BH", 39), (4, "B", 2)):
        models = _collect(SearchSpec(n=n, axiom_set=LABEL_AXIOMS[label]))
        assert sum(oracles.is_least_relabelling(alg.table) for alg in models) == classes
    least = search._least_in_orbit(4)
    got = 0
    for i, t in enumerate(search._tables(SearchSpec(n=4, axiom_set=BH_AXIOMS), None)):
        got += least(t)
        if i < 10_000:
            assert least(t) == oracles.is_least_relabelling(t), t
    assert got == 36_200


def _invariance_algebras():
    """The least model of each class at orders <= 3, B4 and BO4 (its relabellings are the
    rest of the class), and three fixtures."""
    specs = [SearchSpec(n=n, axiom_set=axioms) for n in (1, 2, 3) for axioms in LABEL_AXIOMS.values()]
    for spec in specs + [SearchSpec(n=4, axiom_set=B_AXIOMS), SearchSpec(n=4, axiom_set=BO_AXIOMS)]:
        yield from (alg for alg in _collect(spec) if oracles.is_least_relabelling(alg.table))
    yield from (BUNDLED[name] for name in ("b4", "bh4", "bo5"))


def test_hunt_verdicts_follow_relabelling():
    # a hunt skips isomorphic copies because no law can tell them apart
    for alg in _invariance_algebras():
        copies = [FiniteAlgebra(alg.n, oracles.relabel(alg.table, p))
                  for p in oracles.relabellings_fixing_zero(alg.n)[1:]]
        carrier = _Carrier(alg.n, list(all_partitions(alg.n)))  # shared, as in a hunt
        for target in TARGETS:
            verdict = search._sweep_partitions(alg, carrier, target, None) is None
            for copy in copies:
                got = search._sweep_partitions(copy, carrier, target, None) is None
                assert got == verdict, (alg, copy, target)
