"""The package's public surface: its exports and the input checks of its entry points."""

import tracemalloc
import types

import pytest

import roughalg
from roughalg import (
    Partition,
    SetValuedMap,
    Subset,
    ValidationError,
    all_partitions,
    check_axiom,
    is_ideal,
    lower,
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
                "sweep-order-limit": "partitions"}


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
