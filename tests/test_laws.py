"""The law registry and its mask kernel, checked against the naive evaluator.

Every law of every suite is evaluated on every partition (2-1, 3-1) or
congruence (3-2) of the fixtures and every subset pair, three ways: the
registry predicate on the full mask tables the sweep uses, the single-pair
view, and the tallies of ``sweep_laws``.  All must agree with
``oracles.naive_law`` on the verdict and the witness.
"""

import pytest

from roughalg import (
    LAWS,
    ApproximationSpace,
    Subset,
    all_partitions,
    check_approx_laws,
    check_basic_laws,
    check_congruence_product_laws,
    sweep_laws,
)
from roughalg.rough import GATED, GATED_IF_COMPLETE, SUITES, _UNMET, _product_table, _tables
from roughalg.tables import BUNDLED

import oracles

CASES = [(name, suite) for suite in ("2-1", "3-1") for name in ("b4", "bh4", "z4")]
CASES += [(name, "3-2") for name in ("b4", "bo5", "bh4", "z4")]


def _canonical_masks(n):
    def elements(m):
        return [x for x in range(n) if m >> x & 1]

    return [(m, elements(m)) for m in sorted(range(1 << n), key=lambda m: (len(elements(m)), elements(m)))]


def _view(suite, alg, p, a, b):
    sa, sb = Subset(alg.n, a), Subset(alg.n, b)
    if suite == "3-2":
        report = check_congruence_product_laws(alg, p, sa, sb)
        return [report.upper_inclusion, report.lower_inclusion]
    check = check_approx_laws if suite == "2-1" else check_basic_laws
    return check(ApproximationSpace(partition=p, algebra=alg), sa, sb)


def _kernel(law, ctx, a, b):
    w = law.check(ctx, a, b)
    return (law.unmet[0], None) if w is _UNMET else (w is None, w)


def test_every_law_is_in_a_suite():
    assert {law.id for law in LAWS} == {law.id for m in SUITES.values() for _, _, law in m}
    assert len({law.id for law in LAWS}) == len(LAWS)


@pytest.mark.parametrize("name,suite", CASES)
def test_registry_matches_naive_evaluator(name, suite):
    alg = BUNDLED[name]
    table = [list(row) for row in alg.table]
    n = alg.n
    order = _canonical_masks(n)
    products = _product_table(alg)
    partitions = list(all_partitions(n))
    if suite == "3-2":
        partitions = [p for p in partitions
                      if oracles.is_congruence(table, [list(c) for c in p.classes])]
    members = SUITES[suite]
    for p in partitions:
        classes = [list(c) for c in p.classes]
        complete = suite == "3-2" and oracles.is_complete_congruence(table, classes)
        ctx = _tables(p, products)
        tallies = {}
        violations = []
        for a, elems_a in order:
            for b, elems_b in order:
                view = _view(suite, alg, p, a, b)
                for (number, role, law), result in zip(members, view):
                    want = oracles.naive_law(suite, number, table, classes, elems_a, elems_b)
                    where = (name, suite, number, classes, elems_a, elems_b)
                    assert _kernel(law, ctx, a, b) == want, where
                    assert (result.holds, result.witness) == want, where
                    gated = role == GATED or (role == GATED_IF_COMPLETE and complete)
                    tally = tallies.setdefault((gated, number), [0, 0, 0, None])
                    holds, witness = want
                    tally[{True: 0, False: 1, None: 2}[holds]] += 1
                    if holds is False:
                        failure = (number, elems_a, elems_b, witness)
                        if tally[3] is None:
                            tally[3] = failure
                        if gated:
                            violations.append(failure)

        sweep = sweep_laws(suite, [p], alg)
        assert [(f.law, list(f.a), list(f.b), f.witness) for f in sweep.violations] == violations
        got = {}
        for gated, by_law in ((True, sweep.gated), (False, sweep.measured)):
            for number, t in by_law.items():
                f = t.first_failure
                first = None if f is None else (f.law, list(f.a), list(f.b), f.witness)
                if (t.holds, t.fails, t.not_applicable) != (0, 0, 0):
                    got[gated, number] = [t.holds, t.fails, t.not_applicable, first]
        assert got == tallies, (name, suite, classes)
