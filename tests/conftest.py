"""Shared fixtures and hypothesis strategies."""

import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from roughalg import FiniteAlgebra, Partition, Subset, relations
from roughalg.cli import parse_algebra_file

REPO_ROOT = Path(__file__).resolve().parent.parent
TABLES_DIR = REPO_ROOT / "tables"


def _bundled(name):
    header, alg = parse_algebra_file((TABLES_DIR / f"{name}.alg").read_text(encoding="utf-8"))
    assert header == name, f"tables/{name}.alg names itself {header!r}"
    return alg


# The fixture tables under tables/, read once: b4 (xor on {0..3}; B, BH and BO), bo5 (the
# stock BO example), bh4 (BH only) and z4 (a deliberate negative fixture that fails C1,
# C2 and C6 and satisfies none of the axiom systems).
BUNDLED = {name: _bundled(name) for name in ("b4", "bo5", "bh4", "z4")}


def benchmark_table(name):
    """A table under perfbench/data, such as s3 (order 6, 203 partitions, 3 congruences)."""
    return parse_algebra_file((REPO_ROOT / "perfbench" / "data" / f"{name}.alg").read_text(encoding="utf-8"))[1]


@pytest.fixture
def b4():
    return BUNDLED["b4"]


@pytest.fixture
def bo5():
    return BUNDLED["bo5"]


@pytest.fixture
def bh4():
    return BUNDLED["bh4"]


@pytest.fixture
def z4():
    return BUNDLED["z4"]


@pytest.fixture
def worked_partition():
    """The order-5 partition {0,1 | 2 | 3 | 4} used by many examples."""
    return Partition(5, [[0, 1], [2], [3], [4]])


@pytest.fixture
def tables_dir():
    return TABLES_DIR


def algebras(max_n=4):
    """Random raw operation tables (no axioms imposed, any zero element)."""

    def build(n):
        entry = st.integers(0, n - 1)
        row = st.lists(entry, min_size=n, max_size=n)
        rows = st.lists(row, min_size=n, max_size=n)
        return st.tuples(rows, st.integers(0, n - 1)).map(
            lambda rz: FiniteAlgebra(n, rz[0], zero=rz[1])
        )

    return st.integers(1, max_n).flatmap(build)


def partitions(n):
    """Random partitions of {0..n-1}, via arbitrary label assignments."""

    def build(labels):
        classes = [
            [i for i in range(n) if labels[i] == lab] for lab in sorted(set(labels))
        ]
        return Partition(n, classes)

    return st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(build)


def subsets(n):
    return st.integers(0, (1 << n) - 1).map(lambda m: Subset(n, m))


def _count_calls(monkeypatch, name):
    """The second argument of each call to relations.<name> from now on, through every
    roughalg module that binds it."""
    original, seen = getattr(relations, name), []

    def counted(*args):
        seen.append(args[1])
        return original(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "roughalg" and hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return seen


def count_congruence_checks(monkeypatch):
    """The partitions passed to is_congruence from now on."""
    return _count_calls(monkeypatch, "is_congruence")


def count_incompatible_scans(monkeypatch):
    """The class indexes relations._incompatible scans from now on, is_congruence's included."""
    return _count_calls(monkeypatch, "_incompatible")


def count_completeness_reads(monkeypatch):
    """The maps that relations._mismatch scans from now on: the partitions whose completeness
    is read, and the maps of the morphism checks."""
    return _count_calls(monkeypatch, "_mismatch")
