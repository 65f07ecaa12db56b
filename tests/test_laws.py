"""The law registry and its mask kernel, checked against the naive evaluator.

The tables a sweep reads are checked first: the product table against
``oracles.set_product`` and each partition's L and U tables against
``lower`` and ``upper``.

Every law of every suite is evaluated on every partition of the fixtures
and every subset pair, three ways: the registry's table kernel on the full
mask tables the sweep uses, the single-pair view (for 3-2 on congruences
only), and the tallies of ``sweep_laws``.  All must agree with
``oracles.naive_law`` on the verdict and the witness, and each law's
premise or guard with ``oracles.naive_unmet``.  Each kernel is called once
per pair, with one A and one B, and once on the whole table of A and B
masks, which must return exactly the pairs the one-pair calls fail on.

The congruence verdict a sweep reads from its product table is checked
against the oracles and ``relations`` on every partition of many algebras,
among them random tables lifted from tables on the classes of a partition.

On partitions most laws are theorems, so the table kernels are also
evaluated where they fail: on the generalized approximations of seeded
set-valued maps that are not equivalences, and on seeded random lower and
upper tables.  There they must agree with ``oracles.naive_law_of``, and a
sweep over such tables must merge the rows of its laws into the order of
a naive per-pair loop.
"""

import random

import pytest

from roughalg import (
    LAWS,
    FiniteAlgebra,
    LABEL_AXIOMS,
    Partition,
    SearchLimitError,
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
from roughalg.relations import _completeness, is_congruence
from roughalg.rough import (GATED, GATED_IF_COMPLETE, SUITES, _Carrier, _congruence, _Masks, _product_table,
                            _sweep, _tables)

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


def _kernel(law, ctx, as_, bs):
    """Per mask of as_, per mask of bs: (holds, witness, unmet) of the law, from the
    one-pair call check(ctx, (a,), (b,)) and the premise test, as the single-pair views
    read them.  The whole-table call check(ctx, as_, bs) must return exactly the
    (j, k, witness) of the failing one-pair calls, in (j, k) order."""
    rows, failures = [], []
    for j, a in enumerate(as_):
        row = []
        for k, b in enumerate(bs):
            got = law.check(ctx, (a,), (b,))
            unmet = bool(law.unmet and law.unmet[0](ctx, a, b))
            assert len(got) <= 1 and all(f[:2] == (0, 0) and f[2] is not None for f in got), \
                (law.id, a, b, got)
            assert not (got and unmet), (law.id, a, b)  # a law does not fail where it does not speak
            failures += [(j, k, w) for _, _, w in got]
            row.append((False, got[0][2], unmet) if got else (law.unmet[1], None, unmet) if unmet
                       else (True, None, unmet))
        rows.append(row)
    assert law.check(ctx, as_, bs) == failures, law.id
    return rows


class _NaiveSweep:
    """Tallies, gated violations and first failures of a naive per-pair loop, fed in
    (partition, A, B, suite) order."""

    def __init__(self):
        self.tallies, self.violations, self.first, self.first_of = {}, [], None, {}

    def add(self, gated, number, holds, failure):
        tally = self.tallies.setdefault((gated, number), [0, 0, 0, None])
        tally[{True: 0, False: 1, None: 2}[holds]] += 1
        if holds is False:
            if tally[3] is None:
                tally[3] = failure
            if gated:
                self.violations.append(failure)
            self.first = self.first or failure
            self.first_of.setdefault(number, failure)

    def assert_matches(self, sweep, key):
        """sweep's violations, tallies and first failure equal these, failures compared by key."""
        assert [key(f) for f in sweep.violations] == self.violations
        got = {}
        for gated, by_law in ((True, sweep.gated), (False, sweep.measured)):
            for number, t in by_law.items():
                first = None if t.first_failure is None else key(t.first_failure)
                if (t.holds, t.fails, t.not_applicable) != (0, 0, 0):
                    got[gated, number] = [t.holds, t.fails, t.not_applicable, first]
        assert got == self.tallies
        assert (sweep.first_failure and key(sweep.first_failure)) == self.first


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
    masks = [m for m, _ in order]
    products = _product_table(alg)
    members = SUITES[suite]
    for p in all_partitions(n):
        classes = [list(c) for c in p.classes]
        complete = suite == "3-2" and oracles.is_complete_congruence(table, classes)
        # the 3-2 single-pair view requires a congruence
        viewed = suite != "3-2" or oracles.is_congruence(table, classes)
        ctx = _tables(p, products)
        naive = _NaiveSweep()
        kernels = [_kernel(law, ctx, masks, masks) for _, _, law in members]
        for j, (a, elems_a) in enumerate(order):
            for k, (b, elems_b) in enumerate(order):
                view = _view(suite, alg, p, a, b) if viewed else [None] * len(members)
                for (number, role, law), rows, result in zip(members, kernels, view, strict=True):
                    want = oracles.naive_law(suite, number, table, classes, elems_a, elems_b)
                    where = (name, suite, number, classes, elems_a, elems_b)
                    assert rows[j][k] == (*want, oracles.naive_unmet(
                        suite, number, lambda s: oracles.naive_lower(classes, s),
                        lambda x, y: oracles.set_product(table, x, y), elems_a, elems_b)), where
                    assert result is None or (result.holds, result.witness) == want, where
                    gated = role == GATED or (role == GATED_IF_COMPLETE and complete)
                    naive.add(gated, number, want[0], (number, elems_a, elems_b, want[1]))

        naive.assert_matches(sweep_laws(suite, [p], alg), lambda f: (f.law, list(f.a), list(f.b), f.witness))


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


def _product(x, y):
    return oracles.set_product(TABLE, x, y)


def _registry_matches(ctx, lo, up):
    """Every law of every suite on every pair of ctx against naive_law_of with lo and up;
    returns the witness shapes seen."""
    shapes = set()
    for suite, members in SUITES.items():
        for number, _, law in members:
            for a, row in enumerate(_kernel(law, ctx, range(FULL + 1), range(FULL + 1))):
                for b, got in enumerate(row):
                    want = oracles.naive_law_of(suite, number, N, lo, up, _product, _elements(a), _elements(b))
                    unmet = oracles.naive_unmet(suite, number, lo, _product, _elements(a), _elements(b))
                    assert got == (*want, unmet), (suite, number, a, b)
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


def _random_tables(rng):
    """Random lower and upper tables L and U on the masks of {0..N-1}."""
    L = [rng.randrange(FULL + 1) for _ in range(FULL + 1)]
    U = [rng.randrange(FULL + 1) for _ in range(FULL + 1)]
    if rng.random() < 0.5:  # these fix the empty set, so the universe is checked too
        L[0] = U[0] = 0
    return L, U


def test_registry_on_random_lower_and_upper_tables():
    products = _product_table(FiniteAlgebra(N, TABLE))
    rng = random.Random(11)
    shapes = set()
    for _ in range(40):
        L, U = _random_tables(rng)
        shapes |= _registry_matches(_Masks(L, U, products, FULL),
                                    lambda s, L=L: _elements(L[_mask(s)]),
                                    lambda s, U=U: _elements(U[_mask(s)]))
    assert shapes == SHAPES


# the sweep-order test's operation, which has all three congruence verdicts: {0 | 1, 2} is a
# congruence that is not complete, {0, 1 | 2} and {0, 2 | 1} are none, the other two complete
MIXED = [[0, 1, 1], [0, 1, 2], [0, 1, 2]]

NOTES = {None: "partition is not a congruence of the algebra",
         True: "partition is a complete congruence of the algebra",
         False: "partition is a congruence of the algebra, but not complete"}


@pytest.mark.parametrize("suite", ["2-1", "3-1", "3-2"])
def test_sweep_merges_the_law_rows_in_pair_and_suite_order(suite):
    # each partition of {0, 1, 2} gets random L and U tables, so that several gated laws
    # fail at one A and at one B; the sweep must record what a naive loop in (partition,
    # A, B, suite) order records, and a hunt of one law must stop at its first failure on
    # the congruences (of the completeness it is given, if any)
    alg = FiniteAlgebra(N, MIXED)
    partitions = list(all_partitions(N))
    order = _canonical_masks(N)
    members = SUITES[suite]
    rng = random.Random(7)
    shared = 0  # pairs of a partition with at least two gated violations

    def key(f):
        return f and ([list(c) for c in f.partition.classes], f.law, list(f.a), list(f.b), f.witness,
                      f.note, f.complete)

    for _ in range(8):
        carrier = _Carrier(N, partitions)
        tables = [_random_tables(rng) for _ in partitions]
        carrier._approximations = [_Masks(L, U, None, FULL) for L, U in tables]
        naive = _NaiveSweep()
        hunts = {None: _NaiveSweep(), True: _NaiveSweep(), False: _NaiveSweep()}  # by completeness hunted
        for p, (L, U) in zip(partitions, tables):
            classes = [list(c) for c in p.classes]
            complete = oracles.is_complete_congruence(MIXED, classes)
            # with an algebra every failure describes its partition
            described = complete if oracles.is_congruence(MIXED, classes) else None
            fed = [naive] + ([hunts[None], hunts[complete]] if described is not None else [])
            for _, elems_a in order:
                for _, elems_b in order:
                    gated_failures = 0
                    for number, role, law in members:
                        holds, w = oracles.naive_law_of(suite, number, N, lambda s: _elements(L[_mask(s)]),
                                                        lambda s: _elements(U[_mask(s)]),
                                                        lambda x, y: oracles.set_product(MIXED, x, y),
                                                        elems_a, elems_b)
                        gated = role == GATED or (role == GATED_IF_COMPLETE and complete)
                        gated_failures += gated and holds is False
                        for sweep in fed:
                            sweep.add(gated, number, holds, (classes, number, elems_a, elems_b, w,
                                                             NOTES[described] if law.needs_algebra else None,
                                                             described))
                    shared += gated_failures >= 2
        naive.assert_matches(_sweep(carrier, suite, alg, None, None, None), key)
        for number, _, _ in members:
            for complete, hunt in hunts.items():
                hunted = _sweep(carrier, suite, alg, number, complete, None).first_failure
                assert key(hunted) == hunt.first_of.get(number), (number, complete)
    assert shared > 0
    assert all(hunt.first_of for hunt in hunts.values())


def _lifted_tables(rng):
    """Seeded raw tables of order 2 to 5, each lifted from a random table on the classes of
    a planted partition: x*y is any element of the class the class table gives.  The planted
    partition is a congruence, complete when every class product fills its class."""
    for n in (2, 3, 4, 5):
        for _ in range(60):
            rgs = [0]
            for _ in range(n - 1):
                rgs.append(rng.randrange(max(rgs) + 2))
            classes = [[x for x in range(n) if rgs[x] == c] for c in range(max(rgs) + 1)]
            on_classes = [[rng.randrange(len(classes)) for _ in classes] for _ in classes]
            yield FiniteAlgebra(n, [[rng.choice(classes[on_classes[rgs[x]][rgs[y]]]) for y in range(n)]
                                    for x in range(n)]), Partition(n, classes)


def test_completeness_from_the_product_table():
    # the sweep's three-valued verdict from its product table (None: no congruence, else
    # whether complete) against the oracles' and relations'
    algebras, bh4 = list(_product_table_algebras()), []
    for label in ("B", "BO"):
        enumerate_algebras(SearchSpec(n=4, axiom_set=LABEL_AXIOMS[label]), algebras.append)
    with pytest.raises(SearchLimitError):
        enumerate_algebras(SearchSpec(n=4, axiom_set=LABEL_AXIOMS["BH"], model_cap=2000), bh4.append)
    assert len(bh4) == 2000
    algebras += bh4
    lifted = list(_lifted_tables(random.Random(19)))
    verdicts, planted = set(), set()
    for alg in algebras + [alg for alg, _ in lifted]:
        products = _product_table(alg)
        table = [list(row) for row in alg.table]
        for p in all_partitions(alg.n):
            classes = [list(c) for c in p.classes]
            got = _congruence(products, alg, [(c.mask, min(c)) for c in p.classes], p.masks)
            congruence = oracles.is_congruence(table, classes)
            assert congruence == is_congruence(alg, p).holds == (got is not None), (table, p)
            complete = oracles.is_complete_congruence(table, classes)
            assert complete == _completeness(alg, p).holds == (got is True), (table, p)
            verdicts.add(got)
    for alg, p in lifted:
        classes = [(c.mask, min(c)) for c in p.classes]
        planted.add((len(p.classes), _congruence(_product_table(alg), alg, classes, p.masks)))
    assert verdicts == {None, True, False}
    # every planted partition is a congruence, and nontrivial ones occur complete and not
    assert {v for _, v in planted} <= {True, False}
    assert {v for k, v in planted if 1 < k < 4} == {True, False}
