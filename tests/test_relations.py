"""Partitions, equivalence relations, congruences, ideal-induced relations."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roughalg import (
    CheckResult,
    Partition,
    PreconditionError,
    SetValuedMap,
    Subset,
    ValidationError,
    LABEL_AXIOMS,
    SearchSpec,
    all_partitions,
    enumerate_algebras,
    is_complete_congruence,
    is_congruence,
    is_equivalence,
    is_strong_sv_morphism,
    is_sv_morphism,
    relation_from_ideal,
    to_partition,
)

import oracles
from conftest import BUNDLED, algebras, benchmark_table, partitions
from roughalg.relations import _incomplete


def _relation(n, pairs):
    """The relation relating exactly the given pairs, as a map x -> {y : (x, y) in pairs}."""
    return SetValuedMap(n, n, ([y for y in range(n) if (x, y) in pairs] for x in range(n)))


def _identity(n):
    return _relation(n, {(x, x) for x in range(n)})


def _full(n):
    return _relation(n, set(itertools.product(range(n), repeat=2)))


def _pairs(rel):
    return {(x, y) for x in range(rel.n_source) for y in rel.image(x)}


# ---------------------------------------------------------------- Partition

def test_worked_partition_is_valid(worked_partition):
    assert worked_partition.n == 5
    assert [c.elements() for c in worked_partition.classes] == [(0, 1), (2,), (3,), (4,)]
    assert worked_partition.image(1).elements() == (0, 1)
    assert worked_partition.image(4).elements() == (4,)


def test_overlap_error_names_element():
    with pytest.raises(ValidationError, match="element 1"):
        Partition(3, [[0, 1], [1, 2]])


def test_coverage_error():
    with pytest.raises(ValidationError, match="not covered"):
        Partition(3, [[0, 1]])


@pytest.mark.parametrize("n,classes", [(2.0, [[0], [1]]), (True, [[0]])])
def test_partition_carrier_size_must_be_an_int(n, classes):
    with pytest.raises(ValidationError, match="carrier size") as exc:
        Partition(n, classes)
    assert exc.value.field == "n"


@pytest.mark.parametrize("n", [2.0, True])
@pytest.mark.parametrize("field", ["n_source", "n_target"])
def test_set_valued_map_carrier_sizes_must_be_ints(n, field):
    sizes = {"n_source": 1, "n_target": 1, field: n}
    with pytest.raises(ValidationError, match=field) as exc:
        SetValuedMap(**sizes, images=[[0]])
    assert exc.value.field == field


def test_empty_class_error():
    with pytest.raises(ValidationError, match="empty class"):
        Partition(2, [[0, 1], []])


def test_discrete_partition():
    p = Partition.discrete(2)
    assert [c.elements() for c in p.classes] == [(0,), (1,)]


def test_classes_sorted_by_least_element():
    p = Partition(4, [[3], [0, 2], [1]])
    assert [c.elements() for c in p.classes] == [(0, 2), (1,), (3,)]
    assert p.class_index == (0, 1, 0, 2)


# ---------------------------------------------------------------- equivalences

def test_identity_relation_is_equivalence():
    assert is_equivalence(_identity(4)).holds


def test_symmetry_witness():
    rel = _relation(2, {(0, 0), (1, 1), (0, 1)})
    report = is_equivalence(rel)
    assert not report.holds
    assert report.symmetry == (0, 1)
    assert report.reflexivity is None


def test_reflexivity_witness():
    rel = _relation(3, {(0, 0), (1, 1)})
    assert is_equivalence(rel).reflexivity == (2,)


def test_transitivity_witness():
    pairs = {(x, x) for x in range(3)} | {(0, 1), (1, 0), (1, 2), (2, 1)}
    report = is_equivalence(_relation(3, pairs))
    assert not report.holds
    assert report.transitivity == (0, 1, 2)


def test_relation_from_ideal_zero_is_identity(bo5):
    # only diagonal entries of bo5 are zero
    rel = relation_from_ideal(bo5, Subset.from_elements(5, [0]))
    assert rel == _identity(5)
    assert is_equivalence(rel).holds


def test_to_partition_identity_and_full():
    assert to_partition(_identity(3)) == Partition.discrete(3)
    assert to_partition(_full(3)) == Partition.single(3)


def test_to_partition_one_link(worked_partition):
    pairs = {(x, x) for x in range(5)} | {(0, 1), (1, 0)}
    assert to_partition(_relation(5, pairs)) == worked_partition


def test_to_partition_rejects_non_equivalence():
    rel = _relation(2, {(0, 0), (1, 1), (0, 1)})
    with pytest.raises(PreconditionError) as exc:
        to_partition(rel)
    assert exc.value.witness.symmetry == (0, 1)


@given(st.integers(1, 5).flatmap(partitions))
def test_pairs_roundtrip_is_identity(p):
    # the class map x -> [x] is the partition's equivalence relation
    assert _pairs(p) == {(x, y) for x in range(p.n) for y in range(p.n)
                         if p.class_index[x] == p.class_index[y]}
    assert to_partition(p) == p


@given(st.integers(1, 4).flatmap(lambda n: st.sets(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))).map(lambda s: _relation(n, s))))
def test_is_equivalence_matches_oracle(rel):
    report = is_equivalence(rel)
    refl, sym, trans = oracles.equivalence_properties(rel.n_source, _pairs(rel))
    assert (report.reflexivity is None) == refl
    assert (report.symmetry is None) == sym
    assert (report.transitivity is None) == trans
    assert report.holds == (refl and sym and trans)


def test_equivalence_witnesses_are_the_pair_scans_exhaustively():
    # every relation on at most 3 elements: the image-mask scan reports the
    # first witnesses of a scan over the sorted pairs
    for n in (1, 2, 3):
        cells = list(itertools.product(range(n), repeat=2))
        for bits in range(1 << len(cells)):
            pairs = {cell for i, cell in enumerate(cells) if bits >> i & 1}
            report = is_equivalence(_relation(n, pairs))
            assert (report.reflexivity, report.symmetry, report.transitivity) == \
                oracles.equivalence_witnesses(n, pairs), pairs


def test_is_equivalence_needs_a_square_relation():
    with pytest.raises(ValidationError, match="not square"):
        is_equivalence(SetValuedMap(2, 3, [[0], [1]]))


# ---------------------------------------------------------------- congruences

def test_discrete_and_single_are_congruences(b4, bo5, bh4, z4):
    for alg in (b4, bo5, bh4, z4):
        assert is_congruence(alg, Partition.discrete(alg.n)).holds
        assert is_congruence(alg, Partition.single(alg.n)).holds


def test_bo5_rejects_the_worked_partition(bo5, worked_partition):
    result = is_congruence(bo5, worked_partition)
    assert not result.holds
    assert result.witness == (0, 1, 0, "left")


def test_size_mismatch(bo5):
    with pytest.raises(ValidationError):
        is_congruence(bo5, Partition.discrete(4))


@given(algebras(4), st.data())
def test_is_congruence_matches_oracle(alg, data):
    p = data.draw(partitions(alg.n))
    got = is_congruence(alg, p).holds
    expected = oracles.is_congruence([list(r) for r in alg.table], [list(c) for c in p.classes])
    assert got == expected


def test_congruence_witness_is_the_ordered_pair_scan():
    # is_congruence scans only the pairs x < y; its witness is still the first of a scan
    # over every ordered pair (x, y)
    algs = [*BUNDLED.values(), benchmark_table("s3")]
    for label, n in (("BH", 3), ("B", 4)):
        enumerate_algebras(SearchSpec(n=n, axiom_set=LABEL_AXIOMS[label]), algs.append)
    sides = set()
    for alg in algs:
        for p in all_partitions(alg.n):
            expected = oracles.congruence_witness(alg.table, [list(c) for c in p.classes])
            assert is_congruence(alg, p) == CheckResult(expected is None, expected), (alg, p)
            sides.add(expected and expected[3])
    assert sides == {None, "right", "left"}


@pytest.mark.parametrize("n", range(1, 7))
def test_partition_from_rgs_is_the_validated_partition(n):
    rng = random.Random(n)
    for classes in oracles.rgs_partitions(n):
        rgs = tuple(next(i for i, c in enumerate(classes) if x in c) for x in range(n))
        fast = Partition._from_rgs(rgs)
        assert type(fast) is Partition
        # __init__ derives the class index itself: from classes in any order, each listing its
        # elements in any order, given as lists or as Subsets
        shuffled = [rng.sample(c, len(c)) for c in rng.sample(classes, len(classes))]
        for given_classes in (classes, shuffled, [Subset.from_elements(n, c) for c in shuffled]):
            slow = Partition(n, given_classes)
            assert (slow.n, slow.n_source, slow.n_target) == (fast.n, fast.n_source, fast.n_target) == (n, n, n)
            assert fast.classes == slow.classes == tuple(Subset.from_elements(n, c) for c in classes)
            assert fast.class_index == slow.class_index == rgs
            assert fast.images == slow.images
            assert fast.masks == slow.masks
            assert fast == slow and hash(fast) == hash(slow)


@pytest.mark.parametrize("n_source, n_target", itertools.product((1, 2, 3), repeat=2))
def test_every_small_map_reads_the_same_from_lists_and_from_subsets(n_source, n_target):
    maps = set()
    for masks in itertools.product(range(1 << n_target), repeat=n_source):
        images = tuple(Subset(n_target, m) for m in masks)
        lists = [[y for y in range(n_target) if m >> y & 1] for m in masks]
        f = SetValuedMap(n_source, n_target, lists)
        g = SetValuedMap(n_source, n_target, images)
        assert f.masks == g.masks == masks
        assert f.images == g.images == images
        assert [f.image(x) for x in range(n_source)] == [g.image(x) for x in range(n_source)] == list(images)
        assert f == g and hash(f) == hash(g)
        assert f != SetValuedMap(n_source, n_target + 1, lists)  # same masks, another target
        maps.add(f)
        # a partition equals, and hashes like, the map of its classes
        if n_source == n_target and is_equivalence(f).holds:
            p = to_partition(f)
            assert p == f and hash(p) == hash(f)
            assert p == Partition(n_source, set(images)) and p.masks == masks
    assert len(maps) == 1 << n_target * n_source


def test_discrete_partition_is_complete(b4, bo5, bh4):
    for alg in (b4, bo5, bh4):
        assert is_complete_congruence(alg, Partition.discrete(alg.n)).holds


def test_single_class_on_bh4_is_complete(bh4):
    # full-carrier product covers the carrier, so the single class is complete
    assert is_complete_congruence(bh4, Partition.single(4)).holds


def test_bh4_middle_congruence_is_not_complete(bh4):
    p = Partition(4, [[0, 1], [2], [3]])
    assert is_congruence(bh4, p).holds
    result = is_complete_congruence(bh4, p)
    assert not result.holds
    assert result.witness is not None


def test_complete_congruence_requires_congruence(bo5, worked_partition):
    with pytest.raises(PreconditionError):
        is_complete_congruence(bo5, worked_partition)


@given(algebras(4), st.data())
def test_complete_check_matches_oracle_on_congruences(alg, data):
    p = data.draw(partitions(alg.n))
    if not is_congruence(alg, p).holds:
        return
    got = is_complete_congruence(alg, p).holds
    assert got == oracles.is_complete_congruence([list(r) for r in alg.table], [list(c) for c in p.classes])


# ------------------------------------------------- the class map as a morphism

def _small_models():
    """The fixtures and every B, BH, BO and Z model of order at most 3."""
    algs = list(BUNDLED.values())
    for axioms in LABEL_AXIOMS.values():
        for n in (1, 2, 3):
            enumerate_algebras(SearchSpec(n=n, axiom_set=axioms), algs.append)
    return algs


def test_congruence_is_class_map_morphism_exhaustive():
    # p is a congruence iff its class map x -> [x] is a set-valued morphism, and complete iff
    # a strong one: the class-product pass gives the morphism loop's verdict and witness, with
    # the fields in another order, and the oracle's verdict, on every partition
    algs = _small_models() + [benchmark_table("s3")]
    seen, directions = {True: 0, False: 0}, set()
    for alg in algs:
        for p in all_partitions(alg.n):
            congruence = is_congruence(alg, p).holds
            assert congruence == is_sv_morphism(p, alg).holds, (alg, p)
            seen[congruence] += 1
            w, strong = _incomplete(alg.table, p), is_strong_sv_morphism(p, alg)
            assert (w is None) == strong.holds == oracles.is_complete_congruence(
                alg.table, [list(c) for c in p.classes]), (alg, p)
            if w is not None:
                x, y, direction, element = w
                assert strong.witness == (direction, x, y, element), (alg, p)
                directions.add(direction)
            else:
                assert strong.witness is None
    assert len(algs) > 5 and min(seen.values()) > 0 and directions == {"extra", "missing"}


def test_class_product_inclusion_failure(bo5, worked_partition):
    result = is_sv_morphism(worked_partition, bo5)
    assert not result.holds
    x, y, elem = result.witness
    prod = {bo5.table[a][b] for a in worked_partition.image(x) for b in worked_partition.image(y)}
    assert elem in prod
    assert elem not in worked_partition.image(bo5.table[x][y])


# ------------------------------------------------- relation_from_ideal

def test_relation_from_ideal_01_on_bo5_is_identity(bo5):
    # the induced relation does NOT link 0 and 1: 0*1 = 2 lands outside {0,1}
    rel = relation_from_ideal(bo5, Subset.from_elements(5, [0, 1]))
    assert 1 not in rel.image(0)
    assert rel == _identity(5)


@given(algebras(4), st.data())
def test_relation_from_ideal_is_symmetric(alg, data):
    from conftest import subsets

    members = data.draw(subsets(alg.n))
    rel = relation_from_ideal(alg, members)
    for x, y in _pairs(rel):
        assert x in rel.image(y)


def test_relation_from_ideal_reflexive_under_c1(b4, bo5, bh4):
    # x*x = 0 makes every pair (x, x) qualify whenever 0 is a member
    for alg in (b4, bo5, bh4):
        for mask in range(1 << alg.n):
            members = Subset(alg.n, mask | 1)
            rel = relation_from_ideal(alg, members)
            assert all(x in rel.image(x) for x in range(alg.n))


# ------------------------------------------------- completeness implies congruence

def test_complete_partitions_are_congruences_exhaustively():
    # [x]*[y] = [x*y] for all x, y: for x' ~ x, x'*z lies in [x]*[z] = [x*z], and
    # likewise on the left, so the sweeps gate on completeness alone
    algs = _small_models()
    complete = 0
    for alg in algs:
        for p in all_partitions(alg.n):
            if _incomplete(alg.table, p) is None:
                complete += 1
                assert is_congruence(alg, p).holds, (alg, p)
    assert len(algs) > 4 and complete > len(algs)
