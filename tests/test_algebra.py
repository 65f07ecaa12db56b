"""FiniteAlgebra construction, axiom checks, classification, set products."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roughalg import (
    AxiomId,
    FiniteAlgebra,
    LABEL_AXIOMS,
    SearchSpec,
    Subset,
    ValidationError,
    Z_AXIOM_VARIANTS,
    check_axiom,
    classify,
    find_identities,
    product_set,
)
from roughalg import search

import oracles
from conftest import algebras, subsets

AXIOM_NAMES = [a.name for a in AxiomId]


# ---------------------------------------------------------------- construction

def test_b4_data_is_valid(b4):
    assert b4.n == 4
    assert b4.table[1][2] == 3
    assert b4.zero == 0


def test_singleton_algebra():
    alg = FiniteAlgebra(1, [[0]])
    assert alg.n == 1
    assert alg.table[0][0] == 0


def test_closure_error_names_the_cell():
    with pytest.raises(ValidationError, match=r"row 0, column 1.*2"):
        FiniteAlgebra(2, [[0, 2], [1, 0]])


def test_zero_out_of_range():
    with pytest.raises(ValidationError, match="zero"):
        FiniteAlgebra(2, [[0, 1], [1, 0]], zero=2)


def test_zero_must_be_an_int():
    # a float or bool zero used to be accepted, and check_axiom then failed on indexing
    for zero in (1.0, True):
        with pytest.raises(ValidationError) as exc:
            FiniteAlgebra(2, [[0, 1], [1, 0]], zero=zero)
        assert exc.value.field == "zero"


def test_table_entries_must_be_ints():
    # a bool is an int subclass, but no carrier element; floats were refused before too
    for v in (True, 1.0):
        with pytest.raises(ValidationError, match=r"row 0, column 1") as exc:
            FiniteAlgebra(2, [[0, v], [v, 0]])
        assert exc.value.field == "table"


@pytest.mark.parametrize("n,table", [(2.0, [[0, 1], [1, 0]]), (True, [[0]])])
def test_carrier_size_must_be_an_int(n, table):
    # a bool or float order used to be accepted, and the JSON report then read "order": true
    with pytest.raises(ValidationError, match="carrier size") as exc:
        FiniteAlgebra(n, table)
    assert exc.value.field == "n"


def test_wrong_row_count_and_length():
    with pytest.raises(ValidationError):
        FiniteAlgebra(2, [[0, 1]])
    with pytest.raises(ValidationError):
        FiniteAlgebra(2, [[0, 1], [1]])


def test_algebra_equality_and_hash(b4):
    same = FiniteAlgebra(4, [list(r) for r in b4.table])
    assert same == b4
    assert hash(same) == hash(b4)


# ---------------------------------------------------------------- check_axiom

def test_bo5_satisfies_c5(bo5):
    assert check_axiom(bo5, AxiomId.C5).holds


def test_z4_fails_c6_with_witness_1(z4):
    report = check_axiom(z4, AxiomId.C6)
    assert not report.holds
    assert report.witnesses == ((1,),)


def test_z4_fails_c1_first_witness_2(z4):
    report = check_axiom(z4, AxiomId.C1)
    assert not report.holds
    assert report.witnesses == ((2,), (3,))


def test_all_zero_diagonal_satisfies_c1():
    alg = FiniteAlgebra(3, [[0, 2, 1], [1, 0, 1], [2, 2, 0]])
    assert check_axiom(alg, AxiomId.C1).holds


def test_witness_cap_keeps_exhaustive_verdict(z4):
    report = check_axiom(z4, AxiomId.C1, max_witnesses=1)
    assert not report.holds
    assert report.witnesses == ((2,),)


def test_witness_cap_must_be_positive(z4):
    with pytest.raises(ValidationError):
        check_axiom(z4, AxiomId.C1, max_witnesses=0)


@given(algebras(4), st.sampled_from(AXIOM_NAMES))
def test_check_axiom_matches_oracle(alg, axiom_name):
    report = check_axiom(alg, AxiomId[axiom_name])
    expected = oracles.axiom_violations([list(r) for r in alg.table], axiom_name, alg.zero)
    assert list(report.witnesses) == expected
    assert report.holds == (not expected)


@given(algebras(4), st.sampled_from(AXIOM_NAMES))
def test_every_witness_reevaluates_to_a_violation(alg, axiom_name):
    report = check_axiom(alg, AxiomId[axiom_name])
    for w in report.witnesses:
        assert oracles.violates_axiom_at([list(r) for r in alg.table], axiom_name, w, alg.zero)


def _tables(n, values):
    """Every n x n table with cells drawn from values, as row lists."""
    for cells in itertools.product(values, repeat=n * n):
        yield [list(cells[i * n:(i + 1) * n]) for i in range(n)]


def test_axiom_generators_match_oracle_exhaustively():
    # every table of order 1-2 with every zero, every order-3 table with zero 0
    cases = [(t, z) for n in (1, 2) for t in _tables(n, range(n)) for z in range(n)]
    cases += [(t, 0) for t in _tables(3, range(3))]
    for t, zero in cases:
        for axiom in AxiomId:
            assert list(axiom.violations(t, zero)) == oracles.axiom_violations(t, axiom.name, zero), \
                (t, zero, axiom)


def test_axiom_generators_on_partial_tables_yield_only_forced_violations():
    # the model search prunes a branch on any instance yielded for a table with
    # undetermined (-1) cells, so every completion must violate that instance
    for t in _tables(2, (-1, 0, 1)):
        holes = [(x, y) for x in range(2) for y in range(2) if t[x][y] < 0]
        completions = []
        for fill in itertools.product(range(2), repeat=len(holes)):
            full = [row[:] for row in t]
            for (x, y), v in zip(holes, fill):
                full[x][y] = v
            completions.append(full)
        for zero, axiom in itertools.product(range(2), AxiomId):
            for w in axiom.violations(t, zero):
                assert all(oracles.violates_axiom_at(c, axiom.name, w, zero) for c in completions), \
                    (t, zero, axiom, w)


PROPAGATORS = [a for a in AxiomId if a._propagate is not None]
_LABELLED = {"C3": LABEL_AXIOMS["B"], "C4": LABEL_AXIOMS["BH"], "C5": LABEL_AXIOMS["BO"],
             "C7": Z_AXIOM_VARIANTS["relaxed"]}  # an axiom set that holds each many-variable axiom


def _reads_violation(axiom, t, zero, p, q):
    # whether a violated, determined instance reads the determined cell (p, q): exactly the
    # instances that drop out of the violations when (p, q) is made undetermined
    violated = set(axiom.violations(t, zero))
    value, t[p][q] = t[p][q], -1
    changed = set(axiom.violations(t, zero)) != violated
    t[p][q] = value
    return changed


def _satisfying(n, axiom, zero):
    """Every full n x n table that satisfies the axiom, flattened row-major."""
    return [cells for cells in itertools.product(range(n), repeat=n * n)
            if next(axiom.violations([cells[i * n:(i + 1) * n] for i in range(n)], zero), None) is None]


def _completions(t, satisfying):
    """The flattened tables of satisfying that agree with t on its determined cells."""
    flat = list(itertools.chain.from_iterable(t))
    known = [i for i, v in enumerate(flat) if v >= 0]
    want = [flat[i] for i in known]
    return [c for c in satisfying if [c[i] for i in known] == want]


def _propagator_agrees(axiom, t, zero, completions):
    # completions: flattened tables that satisfy the axiom and agree with t (all of them, or some)
    n = len(t)
    for p, q in itertools.product(range(n), repeat=2):
        if t[p][q] < 0:
            continue
        after, trail = [row[:] for row in t], []
        conflict = axiom._propagate(after, zero, p, q, trail)
        reads = _reads_violation(axiom, t, zero, p, q)
        case = (axiom, t, zero, p, q)
        # a conflict is reported when a violated, determined instance reads (p, q), only then when
        # nothing is forced, and each reported one is such an instance of the table left behind
        assert conflict if reads else not conflict or trail, case
        assert not conflict or _reads_violation(axiom, after, zero, p, q), case
        # each forced cell was undetermined and takes the value of every satisfying completion
        assert len(set(trail)) == len(trail) and all(t[a][b] < 0 <= after[a][b] for a, b in trail), case
        assert not conflict or not completions, case
        assert all(c[a * n + b] == after[a][b] for c in completions for a, b in trail), case
        for a, b in trail:  # undoing the trail restores the table
            after[a][b] = -1
        assert after == t, case


def test_propagators_on_every_small_partial_table():
    assert [a.name for a in PROPAGATORS] == ["C3", "C4", "C5", "C7"]
    for n, zero, axiom in itertools.product((1, 2), range(2), PROPAGATORS):
        if zero < n:
            satisfying = _satisfying(n, axiom, zero)
            for t in _tables(n, range(-1, n)):
                _propagator_agrees(axiom, t, zero, _completions(t, satisfying))


def test_propagators_on_search_prefixes():
    # the forced cells, then a row-major prefix of the others: random, a model's, or a model's with
    # its last cell set anew.  At order 3 every satisfying completion is known; above it, a
    # model's prefix has that model as one.
    rng = random.Random(26)
    for n, axiom in itertools.product(range(3, 7), PROPAGATORS):
        spec = SearchSpec(n=n, axiom_set=_LABELLED[axiom.name], max_order=6)
        forced = search._forced_cells(n, spec.axiom_set, 0)
        cells = [(x, y) for x in range(n) for y in range(n) if forced[x][y] < 0]
        models = [[row[:] for row in t] for t in itertools.islice(search._tables(spec, None), 3)]
        satisfying = _satisfying(3, axiom, 0) if n == 3 else None
        for model, reset in [(None, True)] * 40 + [(m, r) for m in models for r in (False, True)] * 10:
            t, k = [row[:] for row in forced], rng.randint(1, len(cells))
            for i, (x, y) in enumerate(cells[:k]):
                t[x][y] = rng.randrange(n) if model is None or reset and i == k - 1 else model[x][y]
            if satisfying is not None:
                completions = _completions(t, satisfying)
            else:
                completions = [] if reset else [list(itertools.chain.from_iterable(model))]
            _propagator_agrees(axiom, t, 0, completions)


@pytest.mark.parametrize("n,name", [(4, "C3"), (5, "C3"), (6, "C3"), (4, "C5"), (5, "C5"), (6, "C5"),
                                    (7, "C5"), (4, "C7")])
def test_propagators_on_search_states(monkeypatch, n, name):
    # a sample of the tables the search hands to a propagator, forced cells included; the
    # models that agree with a table are some of its satisfying completions.  B6 and BO7 are
    # the largest searches the benchmark runs through C3 and C5
    axiom, seen = AxiomId[name], []
    propagate = axiom._propagate

    def recorded(t, *args):
        seen.append([row[:] for row in t])
        return propagate(t, *args)

    monkeypatch.setattr(axiom, "_propagate", recorded)
    models = [list(itertools.chain.from_iterable(t))
              for t in search._tables(SearchSpec(n=n, axiom_set=_LABELLED[name], max_order=n), None)]
    monkeypatch.undo()
    for t in random.Random(26).sample(seen, 40):
        _propagator_agrees(axiom, t, 0, _completions(t, models))


# ---------------------------------------------------------------- classify

def test_classify_fixtures(b4, bo5, bh4, z4):
    assert classify(b4) == frozenset({"B", "BH", "BO"})
    assert classify(bo5) == frozenset({"B", "BH", "BO"})
    assert classify(bh4) == frozenset({"BH"})
    assert classify(z4) == frozenset()


def test_singleton_satisfies_everything():
    alg = FiniteAlgebra(1, [[0]])
    assert classify(alg) == frozenset({"B", "BH", "BO", "Z"})


def test_z_variants(z4):
    # z4 fails C2, so it stays unlabeled even under the relaxed variant
    assert classify(z4, z_variant="relaxed") == frozenset()
    idempotent = FiniteAlgebra(2, [[0, 1], [1, 1]])
    assert "Z" not in classify(idempotent, z_variant="literal")
    assert "Z" in classify(idempotent, z_variant="relaxed")
    with pytest.raises(ValidationError):
        classify(z4, z_variant="nonsense")


@given(algebras(4))
def test_classify_agrees_with_per_axiom_checks(alg):
    labels, table = classify(alg), [list(r) for r in alg.table]
    for label, axioms in LABEL_AXIOMS.items():
        expected = all(not oracles.axiom_violations(table, a.name, alg.zero) for a in axioms)
        assert (label in labels) == expected


# ---------------------------------------------------------------- identities

def test_b4_two_sided_identity(b4):
    ident = find_identities(b4)
    assert ident.two_sided.elements() == (0,)
    assert ident.left.elements() == (0,)
    assert ident.right.elements() == (0,)


def test_bh4_right_identity_only(bh4):
    ident = find_identities(bh4)
    assert ident.right.elements() == (0,)
    assert ident.left.elements() == ()
    assert ident.two_sided.elements() == ()


def test_z4_has_two_left_identities(z4):
    ident = find_identities(z4)
    assert ident.left.elements() == (0, 3)
    assert ident.right.elements() == ()


def test_singleton_identity():
    ident = find_identities(FiniteAlgebra(1, [[0]]))
    assert ident.two_sided.elements() == (0,)


@given(algebras(4))
def test_identities_by_brute_force(alg):
    ident = find_identities(alg)
    n, t = alg.n, alg.table
    for e in range(n):
        assert (e in ident.right) == all(t[x][e] == x for x in range(n))
        assert (e in ident.left) == all(t[e][x] == x for x in range(n))
        assert (e in ident.two_sided) == (e in ident.left and e in ident.right)


# ---------------------------------------------------------------- product_set

def test_product_bo5_example(bo5):
    a = Subset.from_elements(5, [0, 1])
    assert product_set(bo5, a, a).elements() == (0, 1, 2)


def test_product_with_empty_side(bo5):
    assert product_set(bo5, Subset.empty(5), Subset.universe(5)) == Subset.empty(5)


def test_product_right_zero_is_identity_under_c2(b4, bo5, bh4):
    # x*0 = x forces A*{0} = A
    for alg in (b4, bo5, bh4):
        zero = Subset.from_elements(alg.n, [alg.zero])
        for mask in range(1 << alg.n):
            a = Subset(alg.n, mask)
            assert product_set(alg, a, zero) == a


def test_product_carrier_mismatch(bo5):
    with pytest.raises(ValidationError):
        product_set(bo5, Subset.empty(4), Subset.empty(5))


@given(algebras(4), st.data())
def test_product_matches_oracle_and_is_monotone(alg, data):
    a = data.draw(subsets(alg.n))
    b = data.draw(subsets(alg.n))
    prod = product_set(alg, a, b)
    assert set(prod) == oracles.set_product([list(r) for r in alg.table], set(a), set(b))
    # monotone in both arguments
    extra_a = data.draw(subsets(alg.n))
    extra_b = data.draw(subsets(alg.n))
    assert prod.issubset(product_set(alg, a | extra_a, b | extra_b))
