"""The package's public surface: its exports and the input checks of its entry points."""

import tracemalloc
import types

import pytest

import roughalg
from roughalg import (
    AxiomId,
    LABEL_AXIOMS,
    Partition,
    SearchSpec,
    SetValuedMap,
    Subset,
    ValidationError,
    all_partitions,
    check_axiom,
    classify,
    enumerate_algebras,
    enumerate_congruences,
    find_counterexample,
    find_identities,
    is_ideal,
    is_strong_ideal,
    lower,
    product_set,
    relation_from_ideal,
    sweep_laws,
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


S2 = Subset.empty(2)
# a search with no model: a sink is checked before the search starts, not at the first model
NO_MODELS = SearchSpec(n=2, axiom_set=LABEL_AXIOMS["Z"])

# entry point and argument -> (a call with that argument of the wrong type, the exact message)
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
}


@pytest.mark.parametrize("case", sorted(ARGUMENT_TYPES))
def test_argument_types(case):
    # a public entry point checks the types of its arguments before it reads any of them: a
    # ValidationError names the argument, where a raw AttributeError or TypeError came from inside
    call, message = ARGUMENT_TYPES[case]
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
    assert info.value.field == case.split("-")[1]
