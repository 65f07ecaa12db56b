"""Set-valued maps: generalized approximations and morphism checks."""

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roughalg import (
    FiniteAlgebra,
    SetValuedMap,
    Subset,
    ValidationError,
    is_strong_sv_morphism,
    is_sv_morphism,
    lower,
    upper,
)

from roughalg.cli import run

import oracles
from conftest import benchmark_table, partitions, subsets

XOR2 = FiniteAlgebra(2, [[0, 1], [1, 0]])


def svmaps(n_source, n_target):
    return st.lists(
        st.integers(0, (1 << n_target) - 1), min_size=n_source, max_size=n_source
    ).map(lambda masks: SetValuedMap(n_source, n_target, [Subset(n_target, m) for m in masks]))


@pytest.fixture
def three_to_two():
    """Images ({0}, {0,1}, empty) from a 3-carrier into a 2-carrier."""
    return SetValuedMap(3, 2, [[0], [0, 1], []])


def test_construction_validates():
    with pytest.raises(ValidationError):
        SetValuedMap(2, 2, [[0]])  # not total
    with pytest.raises(ValidationError):
        SetValuedMap(1, 2, [[2]])  # image outside the target
    assert SetValuedMap(2, 2, [[0], []]).masks == (1, 0)  # empty images are allowed


def test_gen_lower_example(three_to_two):
    assert lower(three_to_two, Subset.from_elements(2, [0])).elements() == (0, 2)


def test_gen_upper_example(three_to_two):
    assert upper(three_to_two, Subset.from_elements(2, [1])).elements() == (1,)


def test_empty_image_is_always_in_gen_lower(three_to_two):
    # vacuous inclusion: even the empty target set contains the empty image
    assert 2 in lower(three_to_two, Subset.empty(2))
    assert 2 not in upper(three_to_two, Subset.universe(2))


def test_constant_full_map_lower():
    f = SetValuedMap(3, 3, [Subset.universe(3)] * 3)
    assert lower(f, Subset.from_elements(3, [0, 1])) == Subset.empty(3)
    assert lower(f, Subset.universe(3)) == Subset.universe(3)


def test_gen_upper_of_empty_is_empty(three_to_two):
    assert upper(three_to_two, Subset.empty(2)) == Subset.empty(3)


@given(st.integers(1, 4).flatmap(partitions), st.data())
def test_reduction_to_classic_approximations(p, data):
    f = SetValuedMap(p.n, p.n, p.images)
    a = data.draw(subsets(p.n))
    classes = [list(c) for c in p.classes]
    assert set(lower(f, a)) == oracles.naive_lower(classes, list(a)) == set(lower(p, a))
    assert set(upper(f, a)) == oracles.naive_upper(classes, list(a)) == set(upper(p, a))


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.integers(1, 4).flatmap(
    lambda m: svmaps(n, m)), st.data())))
def test_generalized_approximations_match_their_definitions(case):
    # any map, rectangular, with empty images allowed
    f, data = case
    a = data.draw(subsets(f.n_target))
    images = [list(img) for img in f.images]
    assert set(lower(f, a)) == oracles.naive_gen_lower(images, list(a))
    assert set(upper(f, a)) == oracles.naive_gen_upper(images, list(a))


@given(svmaps(3, 4), st.data())
def test_duality_and_monotonicity(f, data):
    a = data.draw(subsets(4))
    assert upper(f, a.complement()) == lower(f, a).complement()
    b = data.draw(subsets(4))
    assert lower(f, a).issubset(lower(f, a | b))
    assert upper(f, a).issubset(upper(f, a | b))


# ------------------------------------------------------------- morphisms

def test_singleton_image_map_is_strong_for_every_algebra(b4, bo5, bh4, z4):
    for alg in (b4, bo5, bh4, z4):
        f = SetValuedMap(alg.n, alg.n, [[x] for x in range(alg.n)])
        assert is_sv_morphism(f, alg).holds
        assert is_strong_sv_morphism(f, alg).holds


def test_constant_full_map_is_strong_under_c2(b4, bo5, bh4):
    # x*0 = x gives Y*Y = Y, so the constant-universe map preserves products
    for alg in (b4, bo5, bh4):
        f = SetValuedMap(alg.n, alg.n, [Subset.universe(alg.n)] * alg.n)
        assert is_strong_sv_morphism(f, alg).holds


def test_non_morphism_witness():
    f = SetValuedMap(2, 2, [[1], [0]])
    report = is_sv_morphism(f, XOR2)
    assert not report.holds
    assert report.witness == (0, 0, 0)  # F(0)*F(0) = {0}, F(0*0) = {1}


def test_morphism_but_not_strong():
    f = SetValuedMap(2, 2, [[0], []])
    assert is_sv_morphism(f, XOR2).holds
    report = is_strong_sv_morphism(f, XOR2)
    assert not report.holds
    assert report.witness == ("missing", 1, 1, 0)


def test_labels_are_reported(tables_dir, capsys):
    # `roughalg morphism` reports the labels of both algebras next to the verdict
    argv = ["morphism", str(tables_dir / "bh4.alg"), "--map", "0:0;1:1;2:2;3:3",
            "--target", str(tables_dir / "bo5.alg"), "--format", "json"]
    assert run(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert (report["holds"], report["witness"]) == (False, [0, 1, 2])
    assert report["source_labels"] == ["BH"]
    assert report["target_labels"] == ["B", "BH", "BO"]


def test_dimension_mismatch(bh4, bo5):
    f = SetValuedMap(4, 4, [[x] for x in range(4)])
    with pytest.raises(ValidationError):
        is_sv_morphism(f, bo5, bh4)
    with pytest.raises(ValidationError):
        is_sv_morphism(f, bh4, bo5)


def _first_mismatch(f, source, target, strong):
    """Both checks' witness by brute force: the first (x, y) where the set product F(x)*F(y) in
    target has an element outside F(x*y) or, when strong, misses one."""
    images = [set(f.image(x)) for x in range(f.n_source)]
    for x in range(source.n):
        for y in range(source.n):
            prod = oracles.set_product(target.table, images[x], images[y])
            img = images[source.table[x][y]]
            if prod - img:
                return ("extra", x, y, min(prod - img)) if strong else (x, y, min(prod - img))
            if strong and img - prod:
                return ("missing", x, y, min(img - prod))


def test_morphism_witnesses_between_fixtures_match_brute_force(b4, bh4, bo5):
    # seeded maps between different fixtures, and from a fixture into itself, sparse to dense,
    # with the constant universe map and, between tables of one order, the identity map: that
    # one is scanned like any other, as only the identity of one table is a strong endomorphism
    s3 = benchmark_table("s3")
    rng = random.Random(29)
    verdicts = set()
    for source, target in ((b4, bh4), (bh4, b4), (bo5, s3), (s3, bo5), (bh4, bh4), (s3, s3)):
        maps = [SetValuedMap(source.n, target.n, [Subset.universe(target.n)] * source.n)]
        if source.n == target.n:
            maps.append(SetValuedMap(source.n, target.n, [[x] for x in range(source.n)]))
        maps += [SetValuedMap(source.n, target.n, [[y for y in range(target.n) if rng.random() < density]
                                                   for _ in range(source.n)])
                 for density in (0.15, 0.5, 0.85) for _ in range(100)]
        for f in maps:
            plain, strong = is_sv_morphism(f, source, target), is_strong_sv_morphism(f, source, target)
            assert plain.witness == _first_mismatch(f, source, target, False), (source, target, f)
            assert strong.witness == _first_mismatch(f, source, target, True), (source, target, f)
            assert (plain.holds, strong.holds) == (plain.witness is None, strong.witness is None)
            verdicts.add(strong.witness[0] if strong.witness else plain.holds)
        if source.n == target.n:
            identity = is_strong_sv_morphism(maps[1], source, target)
            assert identity.holds == (source.table == target.table)
    assert verdicts == {True, "extra", "missing"}


@given(svmaps(2, 2))
def test_strong_implies_plain_morphism(f):
    if is_strong_sv_morphism(f, XOR2).holds:
        assert is_sv_morphism(f, XOR2).holds


@given(svmaps(2, 2), st.data())
def test_morphism_verdict_matches_brute_force(f, data):
    report = is_sv_morphism(f, XOR2)
    expected = all(
        {XOR2.table[p][q] for p in f.image(x) for q in f.image(y)} <= set(f.image(XOR2.table[x][y]))
        for x in range(2)
        for y in range(2)
    )
    assert report.holds == expected
