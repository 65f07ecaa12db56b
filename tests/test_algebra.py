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
from roughalg.algebra import _clause, collect_witnesses

import oracles
from conftest import algebras, expanded, subsets

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

def test_axiom_arities_and_formulas():
    # C3, C5 and C7 derive both from their two terms; the check goldens pin the formulas too
    assert [(a.name, a.arity, a.formula) for a in AxiomId] == [
        ("C1", 1, "x*x = 0"), ("C2", 1, "x*0 = x"), ("C3", 3, "(x*y)*z = x*(z*(0*y))"),
        ("C4", 2, "x*y = 0 and y*x = 0 imply x = y"), ("C5", 3, "x*(y*z) = (x*y)*(0*z)"),
        ("C6", 1, "x*x = x"), ("C7", 2, "x*y = y*x for nonzero x, y")]


def test_one_variable_axioms_pin_the_cell_their_violations_read():
    # C1, C2 and C6 each pin, for each x, the cell of their product side to their leaf's value:
    # with only that cell determined, x violates the axiom exactly where the cell holds another value
    assert [(a.name, a.pin(1, 0), a.pin(2, 1)) for a in AxiomId if a.pin] == [
        ("C1", (1, 1, 0), (2, 2, 1)), ("C2", (1, 0, 1), (2, 1, 2)), ("C6", (1, 1, 1), (2, 2, 2))]
    assert [a.name for a in AxiomId if a._propagate is None] == ["C1", "C2", "C6"]
    for axiom, zero, x, v in itertools.product([a for a in AxiomId if a.pin], range(3), range(3), range(3)):
        row, column, value = axiom.pin(x, zero)
        t = [[-1] * 3 for _ in range(3)]
        t[row][column] = v
        assert list(axiom.violations(t, zero)) == ([] if v == value else [(x,)]), (axiom, zero, x, v)


@pytest.mark.parametrize("terms", [
    ((), (("x", ("x", "x")), "0")),  # a product of a product
    ((), ("x", "0")),  # no product
    ((), (("x", "x"), ("0", "x"))),  # two products
    ((), (("x", "x"), "0"), "x"),  # a nonzero variable
    (((("x", "x"), "0"),), ("x", "0")),  # a premise
])
def test_a_one_variable_clause_of_another_shape_is_refused(terms):
    # a pin sets one cell to a value that no other cell decides: any other one-variable clause
    # would need a propagator, which the derivation does not make for it
    with pytest.raises(ValueError, match="^a one-variable axiom equates a product of two leaves with a leaf, not "):
        _clause(*terms)


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


@pytest.mark.parametrize("cap", (0, -1, 1.5, True, "x"))
def test_witness_cap_must_be_an_int_of_at_least_1(z4, cap):
    # the cap is None or an int >= 1 (a bool is not an int here); anything else is refused
    # before the first violation is drawn
    with pytest.raises(ValidationError) as exc:
        check_axiom(z4, AxiomId.C1, max_witnesses=cap)
    assert (exc.value.field, str(exc.value)) == ("max_witnesses", f"max_witnesses must be at least 1, got {cap!r}")

    def unread():
        raise AssertionError("a violation was drawn")
        yield

    with pytest.raises(ValidationError):
        collect_witnesses(unread(), cap)


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
    # undetermined (-1) cells, so every completion must violate that instance.  Every order-2
    # table with every zero, and a seeded sample of order-3 tables with zero 0 and at most 4
    # undetermined cells, where each generated loop nest runs at its full depth
    rng = random.Random(28)
    cases = [(t, range(2)) for t in _tables(2, (-1, 0, 1))]
    for _ in range(300):
        t = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
        for cell in rng.sample(range(9), rng.randint(0, 4)):
            t[cell // 3][cell % 3] = -1
        cases.append((t, (0,)))
    for t, zeros in cases:
        n = len(t)
        holes = [(x, y) for x in range(n) for y in range(n) if t[x][y] < 0]
        completions = []
        for fill in itertools.product(range(n), repeat=len(holes)):
            full = [row[:] for row in t]
            for (x, y), v in zip(holes, fill):
                full[x][y] = v
            completions.append(full)
        for zero, axiom in itertools.product(zeros, AxiomId):
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


def _forceable(axiom, t, zero):
    """(the cells it reads, the cell it forces) for each instance of C3, C5 or C7 with one side
    determined and the other lacking only its outermost cell, by the oracle's reading."""
    out = []
    if axiom.name not in ("C3", "C5", "C7"):
        return out
    for w in itertools.product(range(len(t)), repeat=axiom.arity):
        cells = oracles.identity_cells(t, axiom.name, w, zero)
        undetermined = [] if cells is None else [(a, b) for a, b in cells[1:] if t[a][b] < 0]
        if len(undetermined) == 1:
            out.append((cells[0], undetermined[0]))
    return out


def _index(t):
    """The value index of table rows t: the determined cells that hold each value, row-major."""
    held = [[] for _ in t]
    for a, row in enumerate(t):
        for b, v in enumerate(row):
            if v >= 0:
                held[v].append((a, b))
    return held


def _propagator_agrees(axiom, t, zero, completions):
    # completions: flattened tables that satisfy the axiom and agree with t (all of them, or some)
    n = len(t)
    forceable = _forceable(axiom, t, zero)
    for p, q in itertools.product(range(n), repeat=2):
        if t[p][q] < 0:
            continue
        after, trail, held = [row[:] for row in t], [], _index(t)
        conflict = axiom._propagate(after, zero, p, q, trail, held)
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
        # and without a conflict, each forceable instance that reads (p, q) has its cell set
        assert conflict or all(after[a][b] >= 0 for reads, (a, b) in forceable if (p, q) in reads), case
        # the index lists each forced cell after those set before, in the order it was forced
        assert held == [cells + [(a, b) for a, b in trail if after[a][b] == v]
                        for v, cells in enumerate(_index(t))], case
        if not axiom._reads_held:  # a propagator that reads no index does the same without one
            again, again_trail = [row[:] for row in t], []
            assert axiom._propagate(again, zero, p, q, again_trail, None) == conflict, case
            assert (again, again_trail) == (after, trail), case
        for a, b in reversed(trail):  # undoing the trail restores the table and the index
            assert held[after[a][b]].pop() == (a, b), case
            after[a][b] = -1
        assert after == t and held == _index(t), case


def test_propagators_on_every_small_partial_table():
    assert [a.name for a in PROPAGATORS] == ["C3", "C4", "C5", "C7"]
    assert [a.name for a in PROPAGATORS if a._reads_held] == ["C3", "C5"]
    for n, zero, axiom in itertools.product((1, 2), range(2), PROPAGATORS):
        if zero < n:
            satisfying = _satisfying(n, axiom, zero)
            for t in _tables(n, range(-1, n)):
                _propagator_agrees(axiom, t, zero, _completions(t, satisfying))


CLAUSES = [a for a in AxiomId if a._excluded is not None]  # the clauses with a premise


def _filter_agrees(axiom, t, zero, completions):
    # completions: flattened tables that satisfy the axiom and agree with t.  At each undetermined
    # cell the value filter excludes a value exactly where setting it makes a violated instance,
    # with every cell determined, that reads the cell; no satisfying completion holds it there
    n = len(t)
    for p, q in itertools.product(range(n), repeat=2):
        if t[p][q] >= 0:
            continue
        before = [row[:] for row in t]
        excluded = axiom._excluded(t, zero, p, q)
        case = (axiom, before, zero, p, q, excluded)
        assert t == before and 0 <= excluded < 1 << n, case
        for v in range(n):
            t[p][q] = v
            assert bool(excluded >> v & 1) == _reads_violation(axiom, t, zero, p, q), (*case, v)
        t[p][q] = -1
        assert not any(excluded >> c[p * n + q] & 1 for c in completions), case


def test_value_filters_on_every_small_partial_table():
    # every partial table of order 1-2 with every zero, and every order-3 table with zero 0 and one
    # undetermined cell, whose three completions the oracle checks
    assert [a.name for a in CLAUSES] == ["C4"]
    for n, zero, axiom in itertools.product((1, 2), range(2), CLAUSES):
        if zero < n:
            satisfying = _satisfying(n, axiom, zero)
            for t in _tables(n, range(-1, n)):
                _filter_agrees(axiom, t, zero, _completions(t, satisfying))
    for axiom, cell, rest in itertools.product(CLAUSES, range(9), itertools.product(range(3), repeat=8)):
        fills = [[*rest[:cell], v, *rest[cell:]] for v in (-1, 0, 1, 2)]
        completions = [c for c in fills[1:] if not oracles.axiom_violations([c[:3], c[3:6], c[6:]], axiom.name)]
        t = fills[0]
        _filter_agrees(axiom, [t[:3], t[3:6], t[6:]], 0, completions)


def _checked_propagator(monkeypatch, axiom, seen=None):
    """Make the search call a wrapper of axiom's propagator that appends each table handed in to
    seen, if given, and asserts that each cell the call appends to trail was undetermined before
    it.  A propagator that overwrites a set cell can make the search run without end (undoing the
    trail then erases a cell set before), so the test fails at that write instead of hanging.  The
    search runs on an axiom set where no other propagator reads the index: the wrapper asserts that
    it gets a value index exactly when the axiom reads one, and that the index lists the determined
    cells of each value, before and after the call."""
    propagate = axiom._propagate

    def indexed(t, held):
        return held is None if not axiom._reads_held else [sorted(cells) for cells in held] == _index(t)

    def checked(t, zero, p, q, trail, held):
        before, start = [row[:] for row in t], len(trail)
        if seen is not None:
            seen.append(before)
        assert indexed(t, held), (axiom, before, zero, p, q, held)
        conflict = propagate(t, zero, p, q, trail, held)
        assert all(before[a][b] < 0 for a, b in trail[start:]), (axiom, before, zero, p, q, trail[start:])
        assert indexed(t, held), (axiom, before, zero, p, q, trail[start:], held)
        return conflict

    monkeypatch.setattr(axiom, "_propagate", checked)


def test_propagators_on_search_prefixes(monkeypatch):
    # the forced cells, then a row-major prefix of the others: random, a model's, or a model's with
    # its last cell set anew.  At order 3 every satisfying completion is known; above it, a
    # model's prefix has that model as one.
    rng = random.Random(26)
    for n, axiom in itertools.product(range(3, 7), PROPAGATORS):
        spec = SearchSpec(n=n, axiom_set=_LABELLED[axiom.name], max_order=6)
        forced = search._forced_cells(n, spec.axiom_set, 0)
        cells = [(x, y) for x in range(n) for y in range(n) if forced[x][y] < 0]
        _checked_propagator(monkeypatch, axiom)
        models = [[row[:] for row in t] for t in itertools.islice(expanded(search._tables(spec, None)), 3)]
        monkeypatch.undo()
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
    _checked_propagator(monkeypatch, axiom, seen)
    models = [list(itertools.chain.from_iterable(t))
              for t in expanded(search._tables(SearchSpec(n=n, axiom_set=_LABELLED[name], max_order=n), None))]
    monkeypatch.undo()
    for t in random.Random(26).sample(seen, 40):
        _propagator_agrees(axiom, t, 0, _completions(t, models))


@pytest.mark.parametrize("names", ["C2,C3,C4", "C2,C5,C7"])
def test_propagators_get_an_exact_index_at_the_last_cell(monkeypatch, names):
    # in these sets the search often reaches the last free cell with every other cell set and tries
    # its values in a loop of its own: the propagator that reads the index gets an exact one there too
    spec = SearchSpec(n=4, axiom_set=tuple(AxiomId[a] for a in names.split(",")))
    models = search.enumerate_algebras(spec)
    _checked_propagator(monkeypatch, next(a for a in spec.axiom_set if a._reads_held))
    assert search.enumerate_algebras(spec) == models


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
