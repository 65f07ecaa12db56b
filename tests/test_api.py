"""The package's public surface: its exports and the input checks of its entry points."""

import pickle
import tracemalloc
import types

import pytest

import roughalg
from roughalg import (
    AxiomId,
    AxiomReport,
    CheckResult,
    EquivalenceReport,
    FiniteAlgebra,
    Finding,
    IdealReport,
    IdentityReport,
    LABEL_AXIOMS,
    LawResult,
    Partition,
    PreconditionError,
    SearchSpec,
    SetValuedMap,
    Subset,
    ValidationError,
    Z_AXIOM_VARIANTS,
    all_partitions,
    all_subsets,
    canonical_subsets,
    check_approx_laws,
    check_axiom,
    check_basic_laws,
    check_congruence_product_laws,
    classify,
    enumerate_algebras,
    enumerate_congruences,
    enumerate_ideals,
    find_counterexample,
    find_identities,
    is_complete_congruence,
    is_congruence,
    is_equivalence,
    is_ideal,
    is_strong_ideal,
    is_strong_sv_morphism,
    is_sv_morphism,
    lower,
    product_set,
    relation_from_ideal,
    sweep_laws,
    to_partition,
    upper,
)

from conftest import BUNDLED
from roughalg.rough import SWEEP_ORDER_LIMIT


def test_exports_match_public_names():
    assert len(set(roughalg.__all__)) == len(roughalg.__all__)
    assert all(hasattr(roughalg, name) for name in roughalg.__all__)
    public = {name for name, value in vars(roughalg).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {name for name in roughalg.__all__ if not name.startswith("_")}


BH4 = BUNDLED["bh4"]
P2, P3 = Partition.discrete(2), Partition.discrete(3)
P13 = Partition.discrete(SWEEP_ORDER_LIMIT + 1)

# case -> (call, exception, exact message)
INPUT_CHECKS = {
    "sweep-unknown-suite": (lambda: sweep_laws("9-9", [P2]), ValidationError,
                            "unknown suite '9-9'; known: 2-1, 3-1, 3-2"),
    "sweep-no-partitions": (lambda: sweep_laws("3-1", []), ValidationError,
                            "sweep_laws needs at least one partition"),
    "sweep-mixed-carriers": (lambda: sweep_laws("3-1", [P2, P3]), ValidationError,
                             "partition 1 has carrier 3, partition 0 has 2"),
    "sweep-algebra-carrier": (lambda: sweep_laws("2-1", [P3], BH4), ValidationError,
                              "algebra carrier 4 does not match partition carrier 3"),
    "sweep-order-limit": (lambda: sweep_laws("3-1", [P13]), ValidationError,
                          "exhaustive law sweep of order 13 exceeds its limit 12"),
    "sweep-not-a-partition": (lambda: sweep_laws("3-1", [SetValuedMap(2, 2, [[0], [1]])]), ValidationError,
                              "partition 0 is a SetValuedMap, not a Partition"),
    "sweep-not-an-algebra": (lambda: sweep_laws("2-1", [Partition.discrete(4)], "x"), ValidationError,
                             "algebra is a str, not a FiniteAlgebra or None"),
    "svmap-image-carrier": (lambda: SetValuedMap(2, 2, [Subset.empty(3), Subset.empty(2)]),
                            ValidationError, "image of 0 lives in carrier 3, expected 2"),
    "partition-class-carrier": (lambda: Partition(2, [Subset.universe(3)]), ValidationError,
                                "class carrier 3 does not match partition carrier 2"),
    "relation-from-ideal-carrier": (lambda: relation_from_ideal(BH4, Subset.empty(3)), ValidationError,
                                    "subset carrier 3 does not match algebra carrier 4"),
    "lower-carrier": (lambda: lower(P2, Subset.empty(3)), ValidationError,
                      "subset carrier 3 does not match target carrier 2"),
    "upper-carrier": (lambda: upper(P2, Subset.empty(3)), ValidationError,
                      "subset carrier 3 does not match target carrier 2"),
    "is-ideal-carrier": (lambda: is_ideal(BH4, Subset.empty(3)), ValidationError,
                         "subset carrier 3 does not match algebra carrier 4"),
    "check-axiom-name": (lambda: check_axiom(BH4, "C1"), ValidationError, "unknown axiom 'C1'"),
    "all-partitions-empty-carrier": (lambda: list(all_partitions(0)), ValidationError,
                                     "carrier size must be at least 1, got 0"),
    "subset-operand": (lambda: Subset.empty(2) | 1, TypeError, "expected Subset, got int"),
}


# each fault of a sweep's arguments names the argument at fault
SWEEP_FIELDS = {"sweep-unknown-suite": "suite", "sweep-no-partitions": "partitions",
                "sweep-mixed-carriers": "partitions", "sweep-algebra-carrier": "algebra",
                "sweep-order-limit": "partitions", "sweep-not-a-partition": "partitions",
                "sweep-not-an-algebra": "algebra"}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_checks(case):
    call, exception, message = INPUT_CHECKS[case]
    with pytest.raises(exception) as info:
        call()
    assert type(info.value) is exception
    assert str(info.value) == message
    if case in SWEEP_FIELDS:
        assert info.value.field == SWEEP_FIELDS[case]


def test_sweep_order_limit_is_checked_before_the_pair_space():
    # one set of an order-13 pair space alone is 13 ints of 4**13 bits (8 MB each): the sweep
    # refuses the order before it builds any of them
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError):
            sweep_laws("2-1", [P13])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


S2, S4, P4 = Subset.empty(2), Subset.empty(4), Partition.discrete(4)
# a search with no model: a sink is checked before the search starts, not at the first model
NO_MODELS = SearchSpec(n=2, axiom_set=LABEL_AXIOMS["Z"])

# entry point, argument and which value, where one has two -> (a call with that argument of the wrong
# type, the exact message); a generator's check runs at its first value
ARGUMENT_TYPES = {
    "enumerate_algebras-spec": (lambda: enumerate_algebras("x"), "spec must be a SearchSpec, not str"),
    "enumerate_algebras-sink": (lambda: enumerate_algebras(NO_MODELS, 5),
                                "sink must be callable or None, not int"),
    "find_counterexample-spec": (lambda: find_counterexample("x", "2-1:12"), "spec must be a SearchSpec, not str"),
    "lower-f": (lambda: lower("x", S2), "f must be a SetValuedMap, not str"),
    "lower-a": (lambda: lower(P2, 5), "a must be a Subset, not int"),
    "upper-f": (lambda: upper("x", S2), "f must be a SetValuedMap, not str"),
    "upper-a": (lambda: upper(P2, 5), "a must be a Subset, not int"),
    "check_axiom-alg": (lambda: check_axiom("x", AxiomId.C1), "alg must be a FiniteAlgebra, not str"),
    "classify-alg": (lambda: classify("x"), "alg must be a FiniteAlgebra, not str"),
    "is_ideal-alg": (lambda: is_ideal("x", S2), "alg must be a FiniteAlgebra, not str"),
    "is_ideal-ideal": (lambda: is_ideal(BH4, 0), "ideal must be a Subset, not int"),
    "is_strong_ideal-ideal": (lambda: is_strong_ideal(BH4, [0]), "ideal must be a Subset, not list"),
    "enumerate_congruences-alg": (lambda: enumerate_congruences("x"), "alg must be a FiniteAlgebra, not str"),
    "product_set-alg": (lambda: product_set("x", S2, S2), "alg must be a FiniteAlgebra, not str"),
    "product_set-a": (lambda: product_set(BH4, 1, S2), "a must be a Subset, not int"),
    "product_set-b": (lambda: product_set(BH4, Subset.empty(4), None), "b must be a Subset, not NoneType"),
    "find_identities-alg": (lambda: find_identities(P2), "alg must be a FiniteAlgebra, not Partition"),
    "is_sv_morphism-f": (lambda: is_sv_morphism("x", BH4), "f must be a SetValuedMap, not str"),
    "is_sv_morphism-source": (lambda: is_sv_morphism(P4, "x"), "source must be a FiniteAlgebra, not str"),
    "is_strong_sv_morphism-f": (lambda: is_strong_sv_morphism("x", BH4), "f must be a SetValuedMap, not str"),
    "is_strong_sv_morphism-target": (lambda: is_strong_sv_morphism(P4, BH4, 5),
                                     "target must be a FiniteAlgebra, not int"),
    "is_congruence-p": (lambda: is_congruence(BH4, "x"), "p must be a Partition, not str"),
    "is_complete_congruence-alg": (lambda: is_complete_congruence("x", P4), "alg must be a FiniteAlgebra, not str"),
    "is_equivalence-rel": (lambda: is_equivalence("x"), "rel must be a SetValuedMap, not str"),
    "to_partition-rel": (lambda: to_partition("x"), "rel must be a SetValuedMap, not str"),
    "relation_from_ideal-alg": (lambda: relation_from_ideal("x", S4), "alg must be a FiniteAlgebra, not str"),
    "relation_from_ideal-ideal": (lambda: relation_from_ideal(BH4, [0]), "ideal must be a Subset, not list"),
    "check_congruence_product_laws-alg": (lambda: check_congruence_product_laws("x", P4, S4, S4),
                                          "alg must be a FiniteAlgebra, not str"),
    "check_congruence_product_laws-b": (lambda: check_congruence_product_laws(BH4, P4, S4, None),
                                        "b must be a Subset, not NoneType"),
    "check_approx_laws-p": (lambda: check_approx_laws("x", S4, S4), "p must be a Partition, not str"),
    "check_approx_laws-algebra": (lambda: check_approx_laws(P4, S4, S4, "x"),
                                  "algebra must be a FiniteAlgebra, not str"),
    "check_basic_laws-p": (lambda: check_basic_laws("x", S4, S4), "p must be a Partition, not str"),
    "check_basic_laws-a": (lambda: check_basic_laws(P4, 0, S4), "a must be a Subset, not int"),
    "enumerate_ideals-alg": (lambda: enumerate_ideals("x"), "alg must be a FiniteAlgebra, not str"),
    "enumerate_ideals-strong": (lambda: enumerate_ideals(BH4, strong="yes"), "strong must be a bool, not str"),
    "Subset-mask-str": (lambda: Subset(2, "x"), "mask must be an int, not str"),
    "Subset-mask-float": (lambda: Subset(2, 2.0), "mask must be an int, not float"),
    "Subset.from_elements-elements": (lambda: Subset.from_elements(2, "a"), "element 'a' outside carrier 0..1"),
    "Partition-classes-str": (lambda: Partition(2, "x"), "element 'x' outside carrier 0..1"),
    "Partition-classes-element": (lambda: Partition(2, [[0], ["a"]]), "element 'a' outside carrier 0..1"),
    "SetValuedMap-images-int": (lambda: SetValuedMap(2, 2, 5), "images must be an Iterable, not int"),
    "SetValuedMap-images-element": (lambda: SetValuedMap(2, 2, [[0], ["a"]]), "element 'a' outside carrier 0..1"),
    "FiniteAlgebra-table": (lambda: FiniteAlgebra(2, 5), "table must be a Sequence, not int"),
    "all_subsets-n": (lambda: list(all_subsets("x")), "carrier size must be a non-negative int, got 'x'"),
    "canonical_subsets-n": (lambda: canonical_subsets("x"), "carrier size must be a non-negative int, got 'x'"),
    "all_partitions-n-float": (lambda: list(all_partitions(2.0)), "carrier size must be at least 1, got 2.0"),
    "all_partitions-n-str": (lambda: list(all_partitions("x")), "carrier size must be at least 1, got 'x'"),
}


@pytest.mark.parametrize("case", sorted(ARGUMENT_TYPES))
def test_argument_types(case):
    # a public entry point, constructor or generator checks the types of its arguments before it
    # computes with them: a ValidationError names the argument, where a raw AttributeError or
    # TypeError came from inside
    call, message = ARGUMENT_TYPES[case]
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
    assert info.value.field == case.split("-")[1]


# each record, built with its required fields alone, and what its defaults fill in
RECORDS = {
    AxiomReport: ((AxiomId.C1, True, ()), ()),
    IdentityReport: ((S2, S2, S2), ()),
    IdealReport: ((S2, True, True, None, (), ()), ()),
    CheckResult: ((True,), (None,)),
    EquivalenceReport: ((True, None, None, None), ()),
    LawResult: (("1", "bounds", True), (None, None)),
    SearchSpec: ((2,), ((), None, None, 5)),
    Finding: (((0,), None, P2, S2, S2), ("",)),
}


def test_records_are_named_tuples():
    # a record is a tuple of its fields, in the order they are declared: it unpacks, and it
    # equals the plain tuple of the same values; a field cannot be assigned
    for record, (required, defaults) in RECORDS.items():
        r = record(*required)
        assert isinstance(r, tuple) and r == required + defaults and len(r) == len(record._fields)
        assert r._asdict() == dict(zip(record._fields, r)) and record._make(r) == r
        with pytest.raises(AttributeError):
            setattr(r, record._fields[0], required[0])


def test_record_and_value_reprs():
    # one of each record, set, partition, map and algebra prints as Name(...) with its fields;
    # to_partition's refusal embeds the equivalence report's repr
    p, s = Partition(4, [[0, 1], [2], [3]]), Subset.from_elements(4, [0, 2])
    rel = relation_from_ideal(BH4, s)
    finding = find_counterexample(SearchSpec(n=3, axiom_set=LABEL_AXIOMS["BH"]), "3-2:2-incomplete")
    values = [
        check_axiom(BH4, AxiomId.C3, max_witnesses=2),
        find_identities(BH4),
        is_strong_ideal(BH4, s, max_witnesses=2),
        is_complete_congruence(BH4, p),
        is_equivalence(rel),
        check_congruence_product_laws(BH4, p, Subset.from_elements(4, [2]), s)[1],
        SearchSpec(n=3, axiom_set=LABEL_AXIOMS["BH"], model_cap=7),
        finding,
        s,
        p,
        SetValuedMap(3, 2, [[0], [0, 1], []]),
        BH4,
    ]
    assert [repr(v) for v in values] == [
        "AxiomReport(axiom=AxiomId.C3, holds=False, witnesses=((1, 2, 0), (1, 2, 1)))",
        "IdentityReport(left=Subset(4, {}), right=Subset(4, {0}), two_sided=Subset(4, {}))",
        "IdealReport(subset=Subset(4, {0, 2}), has_zero=True, pair_closed=False, triple_closed=False, "
        "pair_witnesses=((1, 2),), triple_witnesses=((1, 2, 0), (2, 2, 3)))",
        "CheckResult(holds=False, witness=(0, 2, 'missing', 1))",
        "EquivalenceReport(holds=False, reflexivity=None, symmetry=None, transitivity=(0, 2, 1))",
        "LawResult(law='product-lower', description='lower(A)*lower(B) <= lower(A*B)', holds=False, "
        "witness=(0,), note=None)",
        "SearchSpec(n=3, axiom_set=(AxiomId.C1, AxiomId.C2, AxiomId.C4), model_cap=7, time_budget=None, "
        "max_order=5)",
        "Finding(witness=(0,), algebra=FiniteAlgebra(n=3, zero=0, table=[[0, 0, 0], [1, 0, 0], [2, 2, 0]]), "
        "partition=Partition(3, 0,1 | 2), a=Subset(3, {2}), b=Subset(3, {0, 2}), note='congruence, not complete')",
        "Subset(4, {0, 2})",
        "Partition(4, 0,1 | 2 | 3)",
        "SetValuedMap(3->2, 0:0; 1:0,1; 2:)",
        "FiniteAlgebra(n=4, zero=0, table=[[0, 1, 0, 0], [1, 0, 0, 0], [2, 2, 0, 3], [3, 3, 3, 0]])",
    ]
    with pytest.raises(PreconditionError) as exc:
        to_partition(rel)
    assert str(exc.value) == f"relation is not an equivalence: {values[4]!r}"


def test_axioms_and_the_records_that_hold_them_pickle():
    # a member's value is its clause's terms, a tuple of strings and tuples, and a member pickles
    # by it: it comes back as itself, and a record or table that holds members comes back equal
    values = [SearchSpec(n=4, axiom_set=LABEL_AXIOMS["BH"], model_cap=7), check_axiom(BH4, AxiomId.C3, max_witnesses=2),
              LABEL_AXIOMS, Z_AXIOM_VARIANTS]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for axiom in AxiomId:
            assert type(axiom.value) is tuple and pickle.loads(pickle.dumps(axiom, protocol)) is axiom
        for value in values:
            assert pickle.loads(pickle.dumps(value, protocol)) == value, (protocol, value)
