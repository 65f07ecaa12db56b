"""Exhaustive model search, congruence enumeration, counterexample hunting.

The model search is one stream of tables.  It fixes the cell that each
one-variable axiom pins for each x (``AxiomId.pin``), then runs a
depth-first search over the other cells in row-major order.  Each other
axiom's private propagator looks at the instances that read a cell just set,
as the watch lists of SEM and Mace4 do: a violated one prunes the branch,
and a cell that one forces is assigned, put on a trail and propagated in
turn, until nothing changes.  The pinned cells are propagated first, then
each choice; a backtrack undoes the trail down to the choice.  Every cell
before the current one is set, so a forced cell lies after it and the
search skips it: only choices count as nodes, and the models are those of a
search that tries every value.  Models come out in lexicographic order
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

import sys
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
            raise ValidationError(f"order {self.n} is outside the search limit 1..{self.max_order}", "n")
        if type(self.axiom_set) is not tuple or not all(isinstance(a, AxiomId) for a in self.axiom_set):
            raise ValidationError(f"axiom_set must be a tuple of AxiomId, got {self.axiom_set!r}", "axiom_set")
        if self.model_cap is not None and self.model_cap < 1:
            raise ValidationError(f"model cap must be at least 1, got {self.model_cap}", "model_cap")
        budget = self.time_budget
        if budget is not None and type(budget) not in (int, float):
            raise ValidationError(f"time_budget must be an int or a float, got {budget!r}", "time_budget")
        if budget is not None and not 0 <= budget <= sys.float_info.max:  # a larger int makes no float
            raise ValidationError(f"time budget must be a finite float >= 0, got {budget}", "time_budget")


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
    props = [a._propagate for a in AxiomId if a in spec.axiom_set and not a.pin]  # the pins settle the rest
    # every set cell but the choices: the pinned ones, then those that propagation forces
    trail = [] if t is None else [(x, y) for x in range(n) for y in range(n) if t[x][y] >= 0]

    def consistent(k):
        """Propagate the cells trail[k:] and those they force in turn; False on a conflict."""
        while k < len(trail):
            for prop in props:
                if prop(t, zero, *trail[k], trail):
                    return False
            k += 1
        return True

    def undo(k):
        for p, q in trail[k:]:
            t[p][q] = -1
        del trail[k:]

    if t is None or not consistent(0):
        return
    cells = [(x, y) for x in range(n) for y in range(n) if t[x][y] < 0]
    last, choices, cap = len(cells), [], spec.model_cap  # choices: (cell index, trail length before it)
    if not cells:  # propagation set every cell
        yield t
        if cap == 1:
            raise SearchLimitError("model cap reached", count=1, reason="model-cap")
        return
    count = nodes = i = 0
    (x, y), base = cells[0], len(trail)
    while True:  # cells[:i] are set, and cell i = (x, y) takes its next value
        for v in range(t[x][y] + 1, n):
            if len(trail) > base:
                undo(base)
            nodes += 1
            if deadline is not None and nodes % 256 == 0 and time.monotonic() > deadline:
                raise SearchLimitError("time budget exceeded", count=count, reason="time")
            t[x][y] = v
            for prop in props:
                if prop(t, zero, x, y, trail):
                    break
            else:
                if len(trail) == base or consistent(base):
                    j = i + 1
                    while j < last and t[cells[j][0]][cells[j][1]] >= 0:  # set by propagation
                        j += 1
                    if j < last:
                        break
                    yield t
                    count += 1
                    if cap is not None and count >= cap:
                        raise SearchLimitError("model cap reached", count=count, reason="model-cap")
        else:  # no value left: the previous choice takes its next one
            undo(base)
            t[x][y] = -1
            if not choices:
                return
            i, base = choices.pop()
            x, y = cells[i]
            continue
        choices.append((i, base))
        (x, y), i, base = cells[j], j, len(trail)


def enumerate_algebras(spec: SearchSpec, sink: Callable[[FiniteAlgebra], None] | None = None) -> int:
    """Count (and optionally emit) every table satisfying the axiom set.

    Emission order is lexicographic in the flattened table.  Every
    satisfying table is emitted exactly once; no isomorphism rejection.
    """
    count = 0
    for t in _tables(spec, _deadline(spec)):
        count += 1
        if sink is not None:
            sink(FiniteAlgebra._trusted(t))
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
        alg = None if t is None else FiniteAlgebra._trusted(t)
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
