"""The law registry and its mask kernel, checked against the naive evaluator.

The tables a sweep reads are checked first: the product table against
``oracles.set_product`` and each partition's L and U tables against
``lower`` and ``upper``.

Every law of every suite is evaluated on every partition of the fixtures
and every subset pair, three ways: the registry predicate on the full mask
tables the sweep uses, the single-pair view (for 3-2 on congruences only),
and the tallies of ``sweep_laws``.  All must agree with
``oracles.naive_law`` on the verdict and the witness.

On partitions most laws are theorems, so the registry predicates are also
evaluated where they fail: on the generalized approximations of seeded
set-valued maps that are not equivalences, and on seeded random lower and
upper tables.  There they must agree with ``oracles.naive_law_of``.
"""

import random

import pytest

from roughalg import (
    LAWS,
    FiniteAlgebra,
    LABEL_AXIOMS,
    SearchSpec,
    SetValuedMap,
    Subset,
    all_partitions,
    check_approx_laws,
    check_basic_laws,
    check_congruence_product_laws,
    enumerate_algebras,
    is_equivalence,
    lower,
    sweep_laws,
    upper,
)
from roughalg.cli import parse_algebra_file
from roughalg.rough import GATED, GATED_IF_COMPLETE, SUITES, _UNMET, _Carrier, _Masks, _product_table, _tables

import oracles
from conftest import BUNDLED, REPO_ROOT

CASES = [(name, suite) for suite in ("2-1", "3-1") for name in ("b4", "bh4", "z4")]
CASES += [(name, "3-2") for name in ("b4", "bo5", "bh4", "z4")]


def _canonical_masks(n):
    def elements(m):
        return [x for x in range(n) if m >> x & 1]

    return [(m, elements(m)) for m in sorted(range(1 << n), key=lambda m: (len(elements(m)), elements(m)))]


def _view(suite, alg, p, a, b):
    sa, sb = Subset(alg.n, a), Subset(alg.n, b)
    if suite == "3-2":
        return check_congruence_product_laws(alg, p, sa, sb)
    return check_approx_laws(p, sa, sb, alg) if suite == "2-1" else check_basic_laws(p, sa, sb)


def _kernel(law, ctx, a, b):
    w = law.check(ctx, a, b)
    return (law.unmet[0], None) if w is _UNMET else (w is None, w)


def test_every_law_is_in_a_suite():
    assert {law.id for law in LAWS} == {law.id for m in SUITES.values() for _, _, law in m}
    assert len({law.id for law in LAWS}) == len(LAWS)


def _product_table_algebras():
    """The fixtures, the order-6 benchmark table s3 and every model of order <= 3 of every label."""
    yield from BUNDLED.values()
    yield parse_algebra_file((REPO_ROOT / "perfbench" / "data" / "s3.alg").read_text(encoding="utf-8"))[1]
    for n in (1, 2, 3):
        for axioms in LABEL_AXIOMS.values():
            models = []
            enumerate_algebras(SearchSpec(n=n, axiom_set=axioms), models.append)
            yield from models


def test_product_table_matches_set_product():
    orders = []
    for alg in _product_table_algebras():
        table = [list(row) for row in alg.table]
        masks = _canonical_masks(alg.n)
        products = _product_table(alg)
        assert len(products) == len(masks) and {len(row) for row in products} == {len(masks)}
        for a, elems_a in masks:
            for b, elems_b in masks:
                want = sum(1 << x for x in oracles.set_product(table, elems_a, elems_b))
                assert products[a][b] == want, (table, elems_a, elems_b)
        orders.append(alg.n)
    assert orders.count(6) == 1 and orders.count(3) > 72


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_carrier_tables_match_the_approximations(n):
    partitions = list(all_partitions(n))
    carrier = _Carrier(n, partitions)
    assert carrier.order == [m for m, _ in _canonical_masks(n)]
    for i, p in enumerate(partitions):
        ctx = carrier.context(i, None)
        assert ctx.full == (1 << n) - 1
        for m in range(1 << n):
            assert ctx.L[m] == lower(p, Subset(n, m)).mask, (p, m)
            assert ctx.U[m] == upper(p, Subset(n, m)).mask, (p, m)
        products = [[0]]
        again = carrier.context(i, products)  # built once, read with any products
        assert (again.L, again.U, again.P) == (ctx.L, ctx.U, products)
        assert again.L is ctx.L and again.U is ctx.U


@pytest.mark.parametrize("name,suite", CASES)
def test_registry_matches_naive_evaluator(name, suite):
    alg = BUNDLED[name]
    table = [list(row) for row in alg.table]
    n = alg.n
    order = _canonical_masks(n)
    products = _product_table(alg)
    members = SUITES[suite]
    for p in all_partitions(n):
        classes = [list(c) for c in p.classes]
        complete = suite == "3-2" and oracles.is_complete_congruence(table, classes)
        # the 3-2 single-pair view requires a congruence
        viewed = suite != "3-2" or oracles.is_congruence(table, classes)
        ctx = _tables(p, products)
        tallies = {}
        violations = []
        for a, elems_a in order:
            for b, elems_b in order:
                view = _view(suite, alg, p, a, b) if viewed else [None] * len(members)
                for (number, role, law), result in zip(members, view, strict=True):
                    want = oracles.naive_law(suite, number, table, classes, elems_a, elems_b)
                    where = (name, suite, number, classes, elems_a, elems_b)
                    assert _kernel(law, ctx, a, b) == want, where
                    assert result is None or (result.holds, result.witness) == want, where
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


@pytest.mark.parametrize("suite", ["2-1", "3-2"])
def test_sweep_without_algebra(suite):
    partitions = list(all_partitions(3))
    sweep = sweep_laws(suite, partitions, None)
    assert (sweep.partitions, sweep.pairs, sweep.violations) == (5, 64, [])
    product_laws = [number for number, _, law in SUITES[suite] if law.needs_algebra]
    assert product_laws
    for number in product_laws:
        tally = sweep.gated.get(number) or sweep.measured[number]
        assert (tally.holds, tally.fails, tally.not_applicable) == (0, 0, 5 * 64)
        assert tally.first_failure is None


# ---------------------------------------------------------------- contexts where the laws fail

N = 3
FULL = (1 << N) - 1
TABLE = [[0, 2, 1], [1, 0, 0], [2, 2, 0]]  # any operation: the product laws read only its products
# every witness shape a registry predicate can report, by its first field
SHAPES = {"left-minus-right", "right-minus-left", "lower-outside-set", "set-outside-upper",
          "empty", "universe", "lower", "upper", "element"}


def _elements(m):
    return {x for x in range(N) if m >> x & 1}


def _mask(s):
    return sum(1 << x for x in s)


def _registry_matches(ctx, lo, up):
    """Every law of every suite on every pair of ctx against naive_law_of with lo and up;
    returns the witness shapes seen."""
    shapes = set()
    for suite, members in SUITES.items():
        for number, _, law in members:
            for a in range(FULL + 1):
                for b in range(FULL + 1):
                    want = oracles.naive_law_of(suite, number, N, lo, up,
                                                lambda x, y: oracles.set_product(TABLE, x, y),
                                                _elements(a), _elements(b))
                    got = _kernel(law, ctx, a, b)
                    assert got == want, (suite, number, a, b)
                    if got[1] is not None:
                        shapes.add(got[1][0] if isinstance(got[1][0], str) else "element")
    return shapes


def _seeded_maps():
    rng = random.Random(2023)
    return [SetValuedMap(N, N, [_elements(rng.randrange(FULL + 1)) for _ in range(N)]) for _ in range(40)]


def test_registry_on_set_valued_maps_that_are_not_equivalences():
    # the kernel's own approximations of relations that are not reflexive, symmetric or transitive
    products = _product_table(FiniteAlgebra(N, TABLE))
    failing = set()
    shapes = set()
    for f in _seeded_maps():
        report = is_equivalence(f)
        failing |= {name for name in ("reflexivity", "symmetry", "transitivity") if getattr(report, name)}
        images = [list(img) for img in f.images]
        shapes |= _registry_matches(_tables(f, products),
                                    lambda s: oracles.naive_gen_lower(images, s),
                                    lambda s: oracles.naive_gen_upper(images, s))
    assert failing == {"reflexivity", "symmetry", "transitivity"}
    # a map's approximations are monotone, and fix the universe unless L[0] already fails
    assert shapes == SHAPES - {"universe", "lower", "upper"}


def test_registry_on_random_lower_and_upper_tables():
    products = _product_table(FiniteAlgebra(N, TABLE))
    rng = random.Random(11)
    shapes = set()
    for _ in range(40):
        L = [rng.randrange(FULL + 1) for _ in range(FULL + 1)]
        U = [rng.randrange(FULL + 1) for _ in range(FULL + 1)]
        if rng.random() < 0.5:  # these fix the empty set, so the universe is checked too
            L[0] = U[0] = 0
        shapes |= _registry_matches(_Masks(L, U, products, FULL),
                                    lambda s, L=L: _elements(L[_mask(s)]),
                                    lambda s, U=U: _elements(U[_mask(s)]))
    assert shapes == SHAPES
