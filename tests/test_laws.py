"""The law registry and its evaluator, checked against the naive evaluator.

What a sweep reads is checked first: the pair space (A and B at every pair
of subsets), the approximations of A and B under every partition, and the
product A*B at every pair against ``oracles.set_product``.

Every law of every suite is then evaluated on every partition of the
fixtures and of every model of order <= 3, three ways: over the whole pair
space at once, where each law's failure int and premise-or-guard int must
equal ``oracles.naive_law`` and ``oracles.naive_unmet`` bit for bit and the
witness at every failing pair the naive witness; through the single-pair
view (for 3-2 on congruences only); and through the tallies of
``sweep_laws``.

The congruence verdicts a sweep reads, all partitions at once, are checked
against the oracles and ``relations`` on every partition of many algebras,
among them random tables lifted from tables on the classes of a partition.

On partitions most laws are theorems, so the laws are also evaluated where
they fail: under the generalized approximations of seeded set-valued maps
that are not equivalences, over the whole pair space and over each single
pair, against ``oracles.naive_law_of``; and a sweep whose partitions are
given such maps' images must merge the failures of its laws into the order
of a naive per-pair loop.
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
from roughalg.relations import _congruent, _incomplete, _related, is_congruence
from roughalg.rough import (GATED, GATED_IF_COMPLETE, SUITES, _Carrier, _evaluate, _grouped, _OPS, _Pair,
                            _Pairs, _PLANS, _reads, _Set, _sweep, _verdict, _witness)

import oracles
from conftest import BUNDLED, REPO_ROOT

CASES = [(name, suite) for suite in ("2-1", "3-1") for name in ("b4", "bh4", "z4")]
CASES += [(name, "3-2") for name in ("b4", "bo5", "bh4", "z4")]


def _canonical_masks(n):
    def elements(m):
        return [x for x in range(n) if m >> x & 1]

    return [(m, elements(m)) for m in sorted(range(1 << n), key=lambda m: (len(elements(m)), elements(m)))]


def _at(vector, i):
    """The mask of the elements whose int in the bit-sliced vector has bit i set."""
    return sum(1 << x for x, bits in enumerate(vector) if bits >> i & 1)


def _view(suite, alg, p, a, b):
    sa, sb = Subset(alg.n, a), Subset(alg.n, b)
    if suite == "3-2":
        return check_congruence_product_laws(alg, p, sa, sb)
    return check_approx_laws(p, sa, sb, alg) if suite == "2-1" else check_basic_laws(p, sa, sb)


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
    assert len({law.id for law in LAWS}) == len(LAWS) == 15
    # a law needs the algebra exactly when its terms hold a product: the four product laws
    assert {law.id for law in LAWS if law.needs_algebra} == {
        "product-upper", "product-upper-converse", "product-lower-unguarded", "product-lower"}
    # each law reads its subterms, each argument before its use
    for law in LAWS:
        slots = law.slots
        assert slots == _reads(law) and list(slots) == sorted(set(slots))
        for s in slots:
            assert {a for a in _OPS[s][1:3] if a is not None} <= set(slots), law.id
    # a sweep's plan reads the slots of its laws, split by whether a map changes them
    for (suite, hunt, algebra), (members, slots, fixed, mapped, _) in _PLANS.items():
        laws = [law for _, _, law in members if algebra or not law.needs_algebra]
        assert slots == sorted({s for law in laws for s in law.slots}) == sorted(fixed + mapped)
        assert not any(_OPS[s][3] for s in fixed) and all(_OPS[s][3] for s in mapped)


def _small_models():
    """Every model of order <= 3 of every label."""
    for n in (1, 2, 3):
        for axioms in LABEL_AXIOMS.values():
            models = []
            enumerate_algebras(SearchSpec(n=n, axiom_set=axioms), models.append)
            yield from models


def _product_table_algebras():
    """The fixtures, the order-6 benchmark table s3 and every model of order <= 3 of every label."""
    yield from BUNDLED.values()
    yield parse_algebra_file((REPO_ROOT / "perfbench" / "data" / "s3.alg").read_text(encoding="utf-8"))[1]
    yield from _small_models()


def test_product_table_matches_set_product():
    # the product A*B at every pair of subsets, from the whole pair space and from each single pair
    orders = []
    A, B = _Set("a"), _Set("b")
    AB = A * B
    for alg in _product_table_algebras():
        table = [list(row) for row in alg.table]
        masks = _canonical_masks(alg.n)
        space = _Pairs(alg.n, [m for m, _ in masks])
        products = _evaluate(space, None, alg, sorted({A, B, AB}), {})[AB]
        for j, (a, elems_a) in enumerate(masks):
            for k, (b, elems_b) in enumerate(masks):
                want = sum(1 << x for x in oracles.set_product(table, elems_a, elems_b))
                assert _at(products, j * len(masks) + k) == want, (table, elems_a, elems_b)
                if alg.n < 6:
                    assert _evaluate(_Pair(alg.n, a, b), None, alg, sorted({A, B, AB}), {})[AB] == want
        orders.append(alg.n)
    assert orders.count(6) == 1 and orders.count(3) > 72


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_carrier_tables_match_the_approximations(n):
    # the pair space holds A and B at every pair, the carrier each partition's relation, and the
    # evaluator each partition's lower and upper approximations of A and B at every pair
    partitions = list(all_partitions(n))
    carrier = _Carrier(n, partitions)
    order = [m for m, _ in _canonical_masks(n)]
    assert carrier.order == order
    space = carrier.space
    assert space.full == (1 << len(order) ** 2) - 1
    pairs = [(a, b) for a in order for b in order]
    assert [(_at(space.a, i), _at(space.b, i)) for i in range(len(pairs))] == pairs
    A, B = _Set("a"), _Set("b")
    terms = [_Set(op, x) for op in ("L", "U") for x in (A, B)]
    for i, p in enumerate(partitions):
        for x in range(n):
            assert [carrier.related[x][y] >> i & 1 for y in range(n)] == [y in p.image(x) for y in range(n)]
        assert (carrier.images[i] is None) == (p == Partition.discrete(n))
        v = carrier.values(i, None, sorted({A, B, *terms}), {})
        for k, (a, b) in enumerate(pairs):
            want = [f(p, Subset(n, m)).mask for f in (lower, upper) for m in (a, b)]
            assert [_at(v[t], k) for t in terms] == want, (p, a, b)


def _check_partitions(suite, alg, naive_laws):
    """Every law of the suite on every partition of alg's carrier against the naive evaluator:
    its failure and premise-or-guard ints over the whole pair space bit for bit, the witness at
    each failing pair, the single-pair view (3-2 on congruences only) and the tallies of
    sweep_laws.  naive_laws memoizes the naive verdicts of the laws that ignore the algebra."""
    table = [list(row) for row in alg.table]
    n = alg.n
    order = _canonical_masks(n)
    members = SUITES[suite]
    partitions = list(all_partitions(n))
    carrier = _Carrier(n, partitions)
    laws = [law for _, _, law in members]
    slots = _PLANS[suite, None, True][1]

    def naive(number, law, classes, elems_a, elems_b):
        key = (suite, number, str(classes), str(elems_a), str(elems_b))
        if law.needs_algebra or key not in naive_laws:
            naive_laws[key] = (oracles.naive_law(suite, number, table, classes, elems_a, elems_b),
                               oracles.naive_unmet(suite, number, lambda s: oracles.naive_lower(classes, s),
                                                   lambda x, y: oracles.set_product(table, x, y),
                                                   elems_a, elems_b))
        return naive_laws[key]

    for i, p in enumerate(partitions):
        classes = [list(c) for c in p.classes]
        complete = suite == "3-2" and oracles.is_complete_congruence(table, classes)
        # the 3-2 single-pair view requires a congruence
        viewed = suite != "3-2" or oracles.is_congruence(table, classes)
        v = carrier.values(i, alg, slots, {})
        verdicts = [_verdict(law, carrier.space, v) for law in laws]
        sweep = _NaiveSweep()
        for j, (a, elems_a) in enumerate(order):
            for k, (b, elems_b) in enumerate(order):
                pair = j * len(order) + k
                view = _view(suite, alg, p, a, b) if viewed else [None] * len(members)
                for (number, role, law), (failed, unmet), result in zip(members, verdicts, view, strict=True):
                    want, want_unmet = naive(number, law, classes, elems_a, elems_b)
                    where = (suite, number, table, classes, elems_a, elems_b)
                    assert (failed >> pair & 1, unmet >> pair & 1) == (want[0] is False, want_unmet), where
                    if want[0] is False:
                        assert _witness(law, carrier.space, v, pair) == want[1], where
                    assert result is None or (result.holds, result.witness) == want, where
                    gated = role == GATED or (role == GATED_IF_COMPLETE and complete)
                    sweep.add(gated, number, want[0], (number, elems_a, elems_b, want[1]))
        sweep.assert_matches(sweep_laws(suite, [p], alg), lambda f: (f.law, list(f.a), list(f.b), f.witness))


@pytest.mark.parametrize("name,suite", CASES)
def test_registry_matches_naive_evaluator(name, suite):
    _check_partitions(suite, BUNDLED[name], {})


@pytest.mark.parametrize("label", sorted(LABEL_AXIOMS))
def test_failure_ints_match_naive_evaluator_on_every_small_model(label):
    naive_laws, total = {}, 0
    for n in (1, 2, 3):
        models, count = [], 0
        enumerate_algebras(SearchSpec(n=n, axiom_set=LABEL_AXIOMS[label]), models.append)
        for alg in models:
            # suite 3-1 reads no algebra: its sweeps and views are the same for every model
            for suite in SUITES if count == 0 else ("2-1", "3-2"):
                _check_partitions(suite, alg, naive_laws)
            count += 1
        total += count
    assert total == {"B": 3, "BH": 75, "BO": 3, "Z": 1}[label]


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


# ---------------------------------------------------------------- maps under which the laws fail

N = 3
TABLE = [[0, 2, 1], [1, 0, 0], [2, 2, 0]]  # any operation: the product laws read only its products
# every witness shape a law can report, by its first field
SHAPES = {"left-minus-right", "right-minus-left", "lower-outside-set", "set-outside-upper",
          "empty", "universe", "lower", "upper", "element"}
# the shapes no map's approximations produce: they are monotone, so "lower" and "upper" (of
# monotone) never occur, and the universe is fixed by both unless an empty image makes L of the
# empty set nonempty, which "empty" reports first
NO_MAP_SHAPES = {"universe", "lower", "upper"}


def _registry_matches(f, table):
    """Every law of every suite under the map f (on {0..n-1}) and the operation table, over the
    whole pair space and over each single pair, against naive_law_of with f's generalized
    approximations; returns the witness shapes seen."""
    n = f.n_source
    alg, images = FiniteAlgebra(n, table), [list(img) for img in f.images]
    lo, up = (lambda s: oracles.naive_gen_lower(images, s)), (lambda s: oracles.naive_gen_upper(images, s))
    prod = lambda x, y: oracles.set_product(table, x, y)
    order = _canonical_masks(n)
    space = _Pairs(n, [m for m, _ in order])
    v = _evaluate(space, _grouped(f), alg, sorted({s for law in LAWS for s in law.slots}), {})
    shapes = set()
    for suite, members in SUITES.items():
        for number, _, law in members:
            failed, unmet = _verdict(law, space, v)
            for j, (a, elems_a) in enumerate(order):
                for k, (b, elems_b) in enumerate(order):
                    want = oracles.naive_law_of(suite, number, n, lo, up, prod, elems_a, elems_b)
                    want_unmet = oracles.naive_unmet(suite, number, lo, prod, elems_a, elems_b)
                    pair, one = j * len(order) + k, _Pair(n, a, b)
                    w = _evaluate(one, f.masks, alg, law.slots, {})
                    got = (failed >> pair & 1, unmet >> pair & 1)
                    assert got == _verdict(law, one, w) == (want[0] is False, want_unmet), (number, a, b)
                    if want[0] is False:
                        assert _witness(law, space, v, pair) == _witness(law, one, w, 0) == want[1]
                        shapes.add(want[1][0] if isinstance(want[1][0], str) else "element")
    return shapes


def _seeded_maps(rng, n, count):
    """count seeded set-valued maps on {0..n-1} that are not equivalences."""
    maps = []
    while len(maps) < count:
        images = [rng.randrange(1 << n) for _ in range(n)]
        f = SetValuedMap(n, n, [[y for y in range(n) if m >> y & 1] for m in images])
        if not is_equivalence(f).holds:
            maps.append(f)
    return maps


def test_registry_on_set_valued_maps_that_are_not_equivalences():
    # the approximations of relations that are not reflexive, symmetric or transitive
    failing, shapes = set(), set()
    for f in _seeded_maps(random.Random(2023), N, 40):
        report = is_equivalence(f)
        failing |= {name for name in ("reflexivity", "symmetry", "transitivity") if getattr(report, name)}
        shapes |= _registry_matches(f, TABLE)
    assert failing == {"reflexivity", "symmetry", "transitivity"}
    assert shapes == SHAPES - NO_MAP_SHAPES


def test_registry_on_seeded_set_valued_maps_of_order_4():
    # the same at order 4, on a seeded raw table: 256 pairs, and images of up to four elements
    rng = random.Random(11)
    table = [[rng.randrange(4) for _ in range(4)] for _ in range(4)]
    shapes = set()
    for f in _seeded_maps(rng, 4, 12):
        shapes |= _registry_matches(f, table)
    assert shapes == SHAPES - NO_MAP_SHAPES


# the sweep-order test's operation, which has all three congruence verdicts: {0 | 1, 2} is a
# congruence that is not complete, {0, 1 | 2} and {0, 2 | 1} are none, the other two complete
MIXED = [[0, 1, 1], [0, 1, 2], [0, 1, 2]]

NOTES = {None: "partition is not a congruence of the algebra",
         True: "partition is a complete congruence of the algebra",
         False: "partition is a congruence of the algebra, but not complete"}


@pytest.mark.parametrize("suite", ["2-1", "3-1", "3-2"])
def test_sweep_merges_the_law_rows_in_pair_and_suite_order(suite):
    # each partition of {0, 1, 2} is swept under the images of a seeded set-valued map that is
    # not an equivalence, so that several gated laws fail at one A and at one B; the sweep must
    # record what a naive loop in (partition, A, B, suite) order records, and a hunt of one law
    # must stop at its first failure on the congruences (of the completeness it is given, if any)
    alg = FiniteAlgebra(N, MIXED)
    partitions = list(all_partitions(N))
    order = _canonical_masks(N)
    members = SUITES[suite]
    rng = random.Random(7)
    shared, failing = 0, set()  # pairs of a partition with at least two gated violations; laws that fail
    stopped = set()  # the completenesses hunted that stopped at a failure

    def key(f):
        return f and ([list(c) for c in f.partition.classes], f.law, list(f.a), list(f.b), f.witness,
                      f.note, f.complete)

    for _ in range(8):
        carrier = _Carrier(N, partitions)
        maps = _seeded_maps(rng, N, len(partitions))
        carrier.images = [_grouped(f) for f in maps]
        naive = _NaiveSweep()
        hunts = {None: _NaiveSweep(), True: _NaiveSweep(), False: _NaiveSweep()}  # by completeness hunted
        for p, f in zip(partitions, maps):
            classes, images = [list(c) for c in p.classes], [list(img) for img in f.images]
            complete = oracles.is_complete_congruence(MIXED, classes)
            # with an algebra every failure describes its partition
            described = complete if oracles.is_congruence(MIXED, classes) else None
            fed = [naive] + ([hunts[None], hunts[complete]] if described is not None else [])
            for _, elems_a in order:
                for _, elems_b in order:
                    gated_failures = 0
                    for number, role, law in members:
                        holds, w = oracles.naive_law_of(suite, number, N,
                                                        lambda s: oracles.naive_gen_lower(images, s),
                                                        lambda s: oracles.naive_gen_upper(images, s),
                                                        lambda x, y: oracles.set_product(MIXED, x, y),
                                                        elems_a, elems_b)
                        gated = role == GATED or (role == GATED_IF_COMPLETE and complete)
                        gated_failures += gated and holds is False
                        failing |= {number} if holds is False else set()
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
                stopped |= {complete} if hunted else set()
    # a map's L preserves meets and its U joins, and both are monotone, so of the 3-1 laws only
    # bounds can fail under a map: there no pair has two gated violations
    assert shared > 0 if suite != "3-1" else failing == {"1"}
    assert stopped == {None, True, False}


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


def test_congruence_verdicts_match_the_oracles():
    # the sweep's verdicts (which partitions are congruences, all at once, and whether a
    # congruence is complete) against the oracles' and relations'
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
        table = [list(row) for row in alg.table]
        partitions = list(all_partitions(alg.n))
        congruent = _congruent(alg.table, _related(partitions))
        for i, p in enumerate(partitions):
            classes = [list(c) for c in p.classes]
            congruence = oracles.is_congruence(table, classes)
            # the same verdict from a carrier of this partition alone
            assert congruence == is_congruence(alg, p).holds == bool(congruent >> i & 1) \
                == bool(_congruent(alg.table, _related([p])) & 1), (table, p)
            complete = oracles.is_complete_congruence(table, classes)
            assert complete == (_incomplete(alg.table, p) is None), (table, p)
            verdicts.add(complete if congruence else None)
    for alg, p in lifted:
        assert _congruent(alg.table, _related([p])) & 1
        planted.add((len(p.classes), _incomplete(alg.table, p) is None))
    assert verdicts == {None, True, False}
    # every planted partition is a congruence, and nontrivial ones occur complete and not
    assert {v for k, v in planted if 1 < k < 4} == {True, False}
