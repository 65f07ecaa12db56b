"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every expected value here was computed with the naive oracles in
oracles.py (or re-verified against them) before being frozen.
"""

import json
import time

from roughalg import (
    AxiomId,
    FiniteAlgebra,
    LABEL_AXIOMS,
    SearchSpec,
    SetValuedMap,
    Subset,
    all_partitions,
    all_subsets,
    check_approx_laws,
    check_axiom,
    check_congruence_product_laws,
    classify,
    enumerate_algebras,
    enumerate_congruences,
    enumerate_ideals,
    find_identities,
    is_complete_congruence,
    is_ideal,
    lower,
    upper,
)
from roughalg.cli import run

from conftest import BUNDLED


def _passed(num, name):
    print(f"criterion {num} ({name}): PASS")


def test_criterion_1_fixture_classification():
    assert "B" in classify(BUNDLED["b4"])
    assert find_identities(BUNDLED["b4"]).two_sided == Subset.from_elements(4, [0])
    assert "BO" in classify(BUNDLED["bo5"])
    assert "BH" in classify(BUNDLED["bh4"])
    _passed(1, "fixture classification")


def test_criterion_2_inconsistency_regressions():
    # the z4 table fails the literal Z axioms, first witnesses pinned
    c1 = check_axiom(BUNDLED["z4"], AxiomId.C1)
    assert not c1.holds and c1.witnesses[0] == (2,)
    c6 = check_axiom(BUNDLED["z4"], AxiomId.C6)
    assert not c6.holds and c6.witnesses == ((1,),)

    # {0,1,2} is not an ideal of z4; (3,1) is among the reported witnesses
    # and the full canonical list is pinned (z4's failing column 0 also
    # yields the earlier witness (3,0))
    report = is_ideal(BUNDLED["z4"], Subset.from_elements(4, [0, 1, 2]))
    assert not report.is_ideal
    assert (3, 1) in report.pair_witnesses
    assert report.pair_witnesses == ((3, 0), (3, 1), (3, 2))

    # {0,1} is not an ideal of bo5; (3,1) is the one and only witness
    report = is_ideal(BUNDLED["bo5"], Subset.from_elements(5, [0, 1]))
    assert not report.is_ideal
    assert report.pair_witnesses == ((3, 1),)
    _passed(2, "inconsistency regressions")


def test_criterion_3_approximation_law_suite():
    started = time.perf_counter()
    gate = {str(i) for i in range(1, 11)}
    violations = 0
    partitions = list(all_partitions(4))
    assert len(partitions) == 15
    subsets = list(all_subsets(4))
    assert len(subsets) == 16
    for p in partitions:
        for a in subsets:
            for b in subsets:
                for r in check_approx_laws(p, a, b):
                    if r.law in gate and r.holds is False:
                        violations += 1
    elapsed = time.perf_counter() - started
    assert violations == 0
    assert elapsed < 5.0, f"law sweep took {elapsed:.2f}s"
    _passed(3, f"approximation law suite, {elapsed:.2f}s")


def test_criterion_4_congruence_product_laws():
    part1_violations = 0
    part2_complete_violations = 0
    for alg in (BUNDLED["b4"], BUNDLED["bo5"], BUNDLED["bh4"]):
        subsets = list(all_subsets(alg.n))
        for p in enumerate_congruences(alg):
            complete = is_complete_congruence(alg, p).holds
            for a in subsets:
                for b in subsets:
                    upper_law, lower_law = check_congruence_product_laws(alg, p, a, b)
                    if upper_law.holds is False:
                        part1_violations += 1
                    if complete and lower_law.holds is False:
                        part2_complete_violations += 1
    assert part1_violations == 0
    assert part2_complete_violations == 0
    _passed(4, "congruence product laws")


def test_criterion_5_ideal_enumeration():
    got = [s.elements() for s in enumerate_ideals(BUNDLED["bh4"])]
    assert got == [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)]
    _passed(5, "ideal enumeration")


def test_criterion_6_model_search():
    models = []
    count = enumerate_algebras(SearchSpec(n=2, axiom_set=LABEL_AXIOMS["B"]), models.append)
    assert count == 1
    assert models == [FiniteAlgebra(2, [[0, 1], [1, 0]])]

    # frozen regression count for the order-4 sweep
    assert enumerate_algebras(SearchSpec(n=4, axiom_set=LABEL_AXIOMS["BO"])) == 4

    # the bundled order-5 table must come out of its own order's enumeration
    emitted = []
    count5 = enumerate_algebras(SearchSpec(n=5, axiom_set=LABEL_AXIOMS["BO"]), emitted.append)
    assert count5 == 6
    assert BUNDLED["bo5"] in emitted
    _passed(6, "model search")


def test_criterion_7_generalized_reduction():
    # a partition is its class map x -> [x]: its approximations are those of that map
    # built by hand, and Pawlak's unions of the classes inside and meeting the set
    violations = 0
    for n in range(1, 5):
        for p in all_partitions(n):
            f = SetValuedMap(n, n, [next(c for c in p.classes if x in c) for x in range(n)])
            for a in all_subsets(n):
                inside = Subset.from_elements(n, (x for c in p.classes if c.issubset(a) for x in c))
                meeting = Subset.from_elements(n, (x for c in p.classes if not c.isdisjoint(a) for x in c))
                if not lower(p, a) == lower(f, a) == inside:
                    violations += 1
                if not upper(p, a) == upper(f, a) == meeting:
                    violations += 1
    assert violations == 0
    _passed(7, "generalized reduction")


def test_criterion_8_duality_and_idempotence():
    violations = 0
    for n in range(1, 5):
        for p in all_partitions(n):
            for a in all_subsets(n):
                lo, hi = lower(p, a), upper(p, a)
                if upper(p, a.complement()) != lo.complement():
                    violations += 1
                if lower(p, lo) != lo or upper(p, hi) != hi:
                    violations += 1
    assert violations == 0
    _passed(8, "duality and idempotence")


def test_criterion_9_determinism(tables_dir, capsys):
    commands = [
        ["verify", str(tables_dir / "bh4.alg"), "--prop", "2-1", "--exhaustive",
         "--format", "json"],
        ["verify", str(tables_dir / "bh4.alg"), "--prop", "3-2", "--exhaustive",
         "--format", "json"],
        ["search", "--order", "4", "--axioms", "bo", "--count", "--emit",
         "--format", "json"],
        ["search", "--order", "3", "--axioms", "bh", "--find", "3-2:2-incomplete",
         "--format", "json"],
    ]
    for argv in commands:
        first_code = run(argv)
        first = capsys.readouterr().out
        second_code = run(argv)
        second = capsys.readouterr().out
        assert first_code == second_code
        assert first.encode() == second.encode()
        json.loads(first)
    _passed(9, "deterministic reports")
