"""Exhaustive model search, congruence enumeration, counterexample hunting.

The model search is one stream of tables.  It fixes the cell that each
one-variable axiom pins for each x (``AxiomId.pin``), then runs a
depth-first search over the other cells in row-major order.  After each
assignment it runs the other axioms' ``violations`` on the partial table
(undetermined cells are -1); any instance they yield is violated by every
completion, so the branch is pruned.  Models come out in lexicographic order
of the flattened table, raw tables with no isomorphism rejection, and
identical runs are bit-identical.  Counting, emitting and hunting are loops
over the stream.  Partitions are enumerated as restricted-growth strings
(class indexes); congruence enumeration builds a Partition only for a
congruence's string.  A hunt sweeps only the tables that are the least of
their relabellings that fix 0; every law follows such a relabelling, so each
skipped table is isomorphic to one swept earlier without a finding.  What
does not depend on the algebra a hunt builds once, at its first sweep: the
Bell(n) partitions, their relations bit-sliced over the partitions, and the
space of subset pairs.  Per algebra it tests every partition for congruence
at once, reads a congruence's completeness from its cells where the target
needs it, and evaluates the one hunted law over all subset pairs of each
congruence.  A SearchLimitError counts the explored prefix: the models of a
count, the algebras a hunt swept to the end or skipped as isomorphic copies.
"""

import math
import time
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, islice, permutations
from operator import itemgetter
from typing import Callable, Iterator

from .algebra import AxiomId, FiniteAlgebra
from .errors import SearchLimitError, ValidationError
from .relations import Partition, _incompatible
from .rough import SUITES, _Carrier, _sweep
from .sets import Subset


@dataclass(frozen=True)
class SearchSpec:
    """What the model search reads: order, axiom constraints, limits.

    ``max_order`` bounds ``n``.  ``model_cap`` and ``time_budget`` (seconds)
    stop the search early with a SearchLimitError carrying the exact count
    for the explored prefix.
    """

    n: int
    axiom_set: tuple[AxiomId, ...] = ()
    model_cap: int | None = None
    time_budget: float | None = None
    max_order: int = 5

    def __post_init__(self):
        for name, v in (("n", self.n), ("max_order", self.max_order), ("model_cap", self.model_cap)):
            if type(v) is not int and not (v is None and name == "model_cap"):
                raise ValidationError(f"{name} must be an int, got {v!r}", name)
        if not 1 <= self.n <= self.max_order:
            raise ValidationError(f"order {self.n} is outside the search limit 1..{self.max_order}; "
                                  "raise max_order to override", "n")
        if self.model_cap is not None and self.model_cap < 1:
            raise ValidationError(f"model cap must be at least 1, got {self.model_cap}", "model_cap")
        if self.time_budget is not None and not 0 <= self.time_budget < math.inf:
            raise ValidationError(f"time budget must be finite and >= 0, got {self.time_budget}",
                                  "time_budget")


# the partition count grows like the Bell numbers: no carrier above this is swept partition by partition
PARTITION_ORDER_LIMIT = 6


def _rgs(n: int) -> list[tuple[int, ...]]:
    """The restricted-growth strings of length n >= 1, lexicographically: each entry is at
    most one above the largest before it, so entry x is the id of x's class."""
    level = [(0,)]
    for _ in range(n - 1):
        level = [r + (v,) for r in level for v in range(max(r) + 2)]
    return level


def all_partitions(n: int) -> Iterator[Partition]:
    """Every partition of {0..n-1}, in lexicographic order of the
    restricted-growth string (single class first, discrete last)."""
    if n < 1:
        raise ValidationError(f"carrier size must be at least 1, got {n}")
    for r in _rgs(n):
        yield Partition._from_rgs(r)


def _forced_cells(n: int, axiom_set: tuple[AxiomId, ...], zero: int) -> list[list[int]] | None:
    """The table with the cells pinned by the one-variable axioms, -1 elsewhere; None on a conflict."""
    t = [[-1] * n for _ in range(n)]
    for x, y, v in (a.pin(e, zero) for a in axiom_set if a.pin for e in range(n)):
        if t[x][y] not in (-1, v):
            return None
        t[x][y] = v
    return t


def _deadline(spec: SearchSpec) -> float | None:
    return None if spec.time_budget is None else time.monotonic() + spec.time_budget


def _tables(spec: SearchSpec, deadline: float | None) -> Iterator[list[list[int]]]:
    """The live table at each model, in lexicographic order; it changes on the next step.  The
    model cap and the deadline raise SearchLimitError counting the tables yielded."""
    n = spec.n
    if not spec.axiom_set:
        raise ValidationError("axiom_set must be nonempty for model search")
    zero = 0
    t = _forced_cells(n, spec.axiom_set, zero)
    if t is None:
        return
    cells = [(x, y) for x in range(n) for y in range(n) if t[x][y] < 0]
    # the one-variable axioms are settled by the forced cells
    checks = [a.violations for a in AxiomId if a in spec.axiom_set and not a.pin]

    def consistent() -> bool:
        for violations in checks:
            for _ in violations(t, zero):
                return False
        return True

    if not consistent():
        return
    count = nodes = i = 0
    while i >= 0:  # cells[:i] are a consistent prefix, cells[i] resumes after its value, later cells are -1
        if i == len(cells):
            yield t
            count += 1
            if spec.model_cap is not None and count >= spec.model_cap:
                raise SearchLimitError("model cap reached", count=count, reason="model-cap")
            i -= 1
            continue
        x, y = cells[i]
        for v in range(t[x][y] + 1, n):
            nodes += 1
            if deadline is not None and nodes % 256 == 0 and time.monotonic() > deadline:
                raise SearchLimitError("time budget exceeded", count=count, reason="time")
            t[x][y] = v
            if consistent():
                i += 1
                break
        else:
            t[x][y] = -1
            i -= 1


def enumerate_algebras(spec: SearchSpec, sink: Callable[[FiniteAlgebra], None] | None = None) -> int:
    """Count (and optionally emit) every table satisfying the axiom set.

    Emission order is lexicographic in the flattened table.  Every
    satisfying table is emitted exactly once; no isomorphism rejection.
    """
    count = 0
    for t in _tables(spec, _deadline(spec)):
        count += 1
        if sink is not None:
            sink(FiniteAlgebra(spec.n, t))
    return count


def _check_congruence_order(n: int) -> None:
    if n > PARTITION_ORDER_LIMIT:
        raise ValidationError(f"carrier size {n} exceeds congruence enumeration limit {PARTITION_ORDER_LIMIT}")


def enumerate_congruences(alg: FiniteAlgebra) -> list[Partition]:
    """All congruence partitions, in canonical partition order.

    Always contains the single-class and discrete partitions.  It tests each
    restricted-growth string as a class index and builds a Partition only for
    a congruence.  Guarded by ``PARTITION_ORDER_LIMIT``.
    """
    _check_congruence_order(alg.n)
    return [Partition._from_rgs(r) for r in _rgs(alg.n) if _incompatible(alg.table, r) is None]


@dataclass(frozen=True)
class Finding:
    """A concrete counterexample to the hunted law: the algebra (None when the law
    ignores it), the partition, the subset pair, the witness tuple and the partition's note."""

    witness: tuple
    algebra: FiniteAlgebra | None
    partition: Partition
    a: Subset
    b: Subset
    note: str = ""


# complete: sweep only the congruences with this completeness (None: all partitions in scope)
_Target = namedtuple("_Target", "suite law complete needs_algebra")
TARGETS = {f"{suite}:{number}": _Target(suite, number, None, law.needs_algebra)
           for suite, members in SUITES.items() for number, _, law in members}
TARGETS["3-2:2-complete"] = _Target("3-2", "2", True, True)
TARGETS["3-2:2-incomplete"] = _Target("3-2", "2", False, True)


def _sweep_partitions(alg, carrier, target, deadline):
    """First finding over the carrier's partitions that are congruences of alg, or over
    all of them without alg."""
    suite, law, complete, _ = TARGETS[target]
    f = _sweep(carrier, suite, alg, law, complete, deadline).first_failure
    if f is None:
        return None
    note = "" if alg is None else "complete congruence" if f.complete else "congruence, not complete"
    return Finding(f.witness, alg, f.partition, f.a, f.b, note)


def _least_in_orbit(n: int) -> Callable[[list[list[int]]], bool]:
    """Whether a table, flattened row-major, is the least of its relabellings that fix 0."""
    relabellings = []
    for rest in islice(permutations(range(1, n)), 1, None):  # all but the identity
        p = (0, *rest)  # x is relabelled p[x], so the new x*y is p[t[q[x]][q[y]]] with q = p^-1
        q = sorted(range(n), key=p.__getitem__)
        cells = itemgetter(*(q[x] * n + q[y] for x in range(n) for y in range(n)))
        relabellings.append((cells, p.__getitem__))

    def least(t):
        flat = tuple(chain.from_iterable(t))
        return all(tuple(map(label, cells(flat))) >= flat for cells, label in relabellings)

    return least


def find_counterexample(spec: SearchSpec, target: str) -> Finding | None:
    """First counterexample to the target property over the models of spec, or None.

    Search order is canonical throughout: algebras lexicographic,
    partitions in canonical order, subset pairs by cardinality then
    elements; identical calls therefore return identical findings.
    Targets whose laws never touch the operation (the non-product laws)
    sweep bare partitions and ignore the axiom set; the Finding then
    carries no algebra.  A SearchLimitError counts the algebras swept to
    the end, and the algebras skipped before them as isomorphic copies.
    """
    if target not in TARGETS:
        raise ValidationError(f"unknown target {target!r}; known: {', '.join(sorted(TARGETS))}")
    deadline = _deadline(spec)
    # the non-product laws ignore the algebra: one sweep with none
    tables = _tables(spec, deadline) if TARGETS[target].needs_algebra else (None,)
    least = _least_in_orbit(spec.n)
    carrier = None  # what every sweep reads, built at the first one
    for swept, t in enumerate(tables):
        if t is not None and not least(t):
            continue  # its least relabelling came earlier in the stream, with no finding
        alg = None if t is None else FiniteAlgebra(spec.n, t)
        if carrier is None:
            if alg is not None:
                _check_congruence_order(spec.n)
            carrier = _Carrier(spec.n, list(all_partitions(spec.n)))
        try:
            finding = _sweep_partitions(alg, carrier, target, deadline)
        except TimeoutError:  # the sweep's own deadline check, before a congruence
            raise SearchLimitError("time budget exceeded", count=swept, reason="time") from None
        if finding is not None:
            return finding
    return None
