"""Exhaustive model search, congruence enumeration, counterexample hunting.

The model search is one stream of model families.  It reads what ``AxiomId`` derives from each
axiom's clause.  It fixes the cell that each one-variable axiom pins for each x (``AxiomId.pin``),
then runs a depth-first search over the other cells in row-major order.  Each other axiom's private
propagator looks at the instances that read a cell just set, as the watch lists of SEM and Mace4 do:
a violated one prunes the branch, and a cell that an identity forces is assigned, put on a trail and
propagated in turn, until nothing changes.  A pinned or forced cell meets each propagator in
turn.  A choice never tries a value that a clause's value filter excludes, which settles that
clause's instances reading the cell, so it meets only the other propagators.  C3's and C5's
propagators find some instances among the cells that hold the row or the column of the cell just
set: for them the search keeps a value index, ``held[v]`` the determined cells that hold v in the
order they were set.  Each write (a pinned cell, a choice, a forced cell) appends its cell and each
undo or overwrite pops it.  For a set whose propagators read no index (BH, Z) the search keeps
none.  The pinned cells are propagated first, then each choice.  Each choice keeps its own iterator
over the values the filter leaves; a backtrack undoes the trail down to the choice and resumes that
iterator.  Every cell before the current one is set, so a forced cell lies after it and the search
skips it: only choices count as nodes, and the models are those of a search that tries every
value.  Once every other cell is set, none can be forced: the stream yields the table and the values
of the last cell that complete it (the filter's, less those a propagator's conflict test rejects) as
one family, which a count adds up and an emission or a hunt writes into the table value by
value.  Models come out in lexicographic order of the flattened table, raw tables with no
isomorphism rejection, and identical runs are bit-identical.  A hunt sweeps only the tables that are
the least of their relabellings that fix 0; every law follows such a relabelling, so each skipped
table is isomorphic to one swept earlier without a finding.  What does not depend on the algebra a
hunt builds once, at its first sweep: the Bell(n) partitions, their relations bit-sliced over the
partitions, and the space of subset pairs.  Per algebra it tests every partition for congruence at
once, reads a congruence's completeness from its cells where the target needs it, and evaluates the
one hunted law over all subset pairs of each congruence.  A SearchLimitError counts the explored
prefix: the models of a count, the algebras a hunt swept to the end or skipped as isomorphic copies.
"""

import sys
import time
from collections import namedtuple
from itertools import chain, islice, permutations
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

from .algebra import AxiomId, FiniteAlgebra
from .errors import SearchLimitError, ValidationError, check_types
from .relations import Partition, _incompatible
from .rough import SUITES, _Carrier, _sweep
from .sets import Subset


class SearchSpec(namedtuple("SearchSpec", "n axiom_set model_cap time_budget max_order")):
    """What the model search reads: order, axiom constraints, limits.

    ``max_order`` bounds ``n``.  ``model_cap`` and ``time_budget`` (seconds)
    stop the search early with a SearchLimitError carrying the exact count
    for the explored prefix.  Every spec is validated here, also one that
    ``_make`` or ``_replace`` builds.
    """

    __slots__ = ()

    def __new__(cls, n: int, axiom_set: tuple[AxiomId, ...] = (), model_cap: int | None = None,
                time_budget: float | None = None, max_order: int = 5):
        for name, v in (("n", n), ("max_order", max_order), ("model_cap", model_cap)):
            if type(v) is not int and not (v is None and name == "model_cap"):
                raise ValidationError(f"{name} must be an int, got {v!r}", name)
        if not 1 <= n <= max_order:
            raise ValidationError(f"order {n} is outside the search limit 1..{max_order}", "n")
        if type(axiom_set) is not tuple or not all(isinstance(a, AxiomId) for a in axiom_set):
            raise ValidationError(f"axiom_set must be a tuple of AxiomId, got {axiom_set!r}", "axiom_set")
        if model_cap is not None and model_cap < 1:
            raise ValidationError(f"model cap must be at least 1, got {model_cap}", "model_cap")
        if time_budget is not None and type(time_budget) not in (int, float):
            raise ValidationError(f"time_budget must be an int or a float, got {time_budget!r}", "time_budget")
        if time_budget is not None and not 0 <= time_budget <= sys.float_info.max:  # a larger int makes no float
            raise ValidationError(f"time budget must be a finite float >= 0, got {time_budget}", "time_budget")
        return super().__new__(cls, n, axiom_set, model_cap, time_budget, max_order)

    @classmethod
    def _make(cls, fields):  # the one other way in, _replace's too
        return cls(*super()._make(fields))


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
    if type(n) is not int or n < 1:
        raise ValidationError(f"carrier size must be at least 1, got {n!r}", "n")
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
    check_types(SearchSpec, spec=spec)  # every search reads its deadline first
    return None if spec.time_budget is None else time.monotonic() + spec.time_budget


class _Leaves(dict):  # each value filter mask met: the values it leaves, in increasing order, of mask 0's
    def __missing__(self, out):
        return self.setdefault(out, tuple(v for v in self[0] if not out >> v & 1))


def _tables(spec: SearchSpec, deadline: float | None) -> Iterator[tuple[list[list[int]], tuple, tuple]]:
    """The model families in lexicographic order: (t, (p, q), values), t the live table set but for the
    last free cell (p, q), values the increasing values of (p, q) that complete t ((t[p][q],) where
    propagation set it), which a consumer may write into t.  The model cap truncates the family it
    falls in; it and the deadline raise SearchLimitError counting the models yielded."""
    n, zero = spec.n, 0
    if not spec.axiom_set:
        raise ValidationError("axiom_set must be nonempty for model search")
    t = _forced_cells(n, spec.axiom_set, zero)
    if t is None:
        return
    axioms = [a for a in AxiomId if a in spec.axiom_set and not a.pin]  # the pins settle the rest
    propagate = _joined([a._propagate for a in axioms])  # for a pinned or forced cell
    choose = _joined([a._propagate for a in axioms if not a._excluded])  # the filters settle the rest
    excluded = next((a._excluded for a in axioms if a._excluded), None)  # no set has two value filters yet
    # every set cell but the choices: the pinned ones, then those that propagation forces
    trail = [(x, y) for x in range(n) for y in range(n) if t[x][y] >= 0]
    held = None  # the value index, kept only for a propagator that reads it
    if any(a._reads_held for a in spec.axiom_set):
        held = [[] for _ in range(n)]
        for x, y in trail:
            held[t[x][y]].append((x, y))

    def consistent(k):
        """Propagate the cells trail[k:] and those they force in turn; False on a conflict."""
        while k < len(trail):
            if propagate(t, zero, *trail[k], trail, held):
                return False
            k += 1
        return True

    def undo(k):
        if held is not None:  # each value's cells in trail[k:] are the last of its list
            for p, q in trail[k:]:
                held[t[p][q]].pop()
        for p, q in trail[k:]:
            t[p][q] = -1
        del trail[k:]

    if propagate and not consistent(0):
        return
    cells = [(x, y) for x in range(n) for y in range(n) if t[x][y] < 0]
    last, choices, cap = len(cells) - 1, [], spec.model_cap  # choices: (cell index, trail length, values)
    if not cells:  # propagation set every cell
        yield t, (0, 0), (t[0][0],)
        if cap == 1:
            raise SearchLimitError("model cap reached", count=1, reason="model-cap")
        return
    leaves = _Leaves({0: tuple(range(n))})  # the values left at a cell: leaves[excluded(...) if excluded else 0]

    def admits(p, q, u):  # whether u at the last free cell (p, q) passes the conflict test; the cell keeps u
        if held is not None:  # the cell moves to u's list from its last value's, as a choice does
            held[u].append(held[t[p][q]].pop() if t[p][q] >= 0 else (p, q))
        t[p][q] = u
        return not choose(t, zero, p, q, trail, held)

    count = nodes = i = 0
    p, q = cell = cells[last]
    alone = [(t, cell, (v,)) for v in range(n)]  # the family of each value of the last cell alone
    base, vs = len(trail), iter(leaves[excluded(t, zero, *cells[0]) if excluded else 0])
    while True:  # cells[:i] are set, and cell i = (x, y) takes the next value of its own iterator vs
        x, y = cells[i]
        for v in vs:
            if len(trail) > base:
                undo(base)
            nodes += 1
            if deadline is not None and nodes % 256 == 0 and time.monotonic() > deadline:
                raise SearchLimitError("time budget exceeded", count=count, reason="time")
            if held is not None:  # the cell moves to v's list from its last value's, where it is last
                held[v].append(held[t[x][y]].pop() if t[x][y] >= 0 else (x, y))
            t[x][y] = v
            if not (choose and choose(t, zero, x, y, trail, held)) and (len(trail) == base or consistent(base)):
                j = i + 1
                while j <= last and t[cells[j][0]][cells[j][1]] >= 0:  # set by propagation
                    j += 1
                if j < last:
                    break
                if j > last:  # propagation set the last cell too: a family of one, below any cap
                    count += 1
                    family = alone[t[p][q]]
                else:  # every other cell is set: none can be forced, none undone
                    us = leaves[excluded(t, zero, p, q) if excluded else 0]
                    if deadline is not None and (nodes + len(us)) >> 8 > nodes >> 8 and time.monotonic() > deadline:
                        raise SearchLimitError("time budget exceeded", count=count, reason="time")
                    nodes += len(us)
                    if choose:
                        us = tuple(u for u in us if admits(p, q, u))
                        if held is not None and t[p][q] >= 0:
                            held[t[p][q]].pop()
                        t[p][q] = -1
                    family = t, cell, (us if cap is None else us[:cap - count])
                    count += len(family[2])
                yield family
                if j == last:  # the consumer wrote the cell's values into t
                    t[p][q] = -1
                if cap is not None and count >= cap:
                    raise SearchLimitError("model cap reached", count=count, reason="model-cap")
        else:  # no value left: the previous choice resumes its iterator
            if len(trail) > base:
                undo(base)
            if held is not None and t[x][y] >= 0:  # the cell's last value, the last of its list
                held[t[x][y]].pop()
            t[x][y] = -1
            if not choices:
                return
            i, base, vs = choices.pop()
            continue
        choices.append((i, base, vs))
        i, base, vs = j, len(trail), iter(leaves[excluded(t, zero, *cells[j]) if excluded else 0])


def _joined(propagators):
    """None for none, the one, or one call of each in turn, up to a conflict."""
    if len(propagators) < 2:
        return propagators[0] if propagators else None
    first, then = propagators[0], _joined(propagators[1:])  # a call each, with no generator of its own
    return lambda *args: first(*args) or then(*args)


def enumerate_algebras(spec: SearchSpec, sink: Callable[[FiniteAlgebra], None] | None = None) -> int:
    """Count (and optionally emit) every table satisfying the axiom set.

    Emission order is lexicographic in the flattened table.  Every
    satisfying table is emitted exactly once; no isomorphism rejection.
    """
    families, count = _tables(spec, _deadline(spec)), 0
    if sink is not None and not callable(sink):
        raise ValidationError(f"sink must be callable or None, not {type(sink).__name__}", "sink")
    if sink is None:  # the sizes of the families, added up with no loop of its own
        return sum(map(len, map(itemgetter(2), families)))
    for t, (p, q), values in families:
        count += len(values)
        for t[p][q] in values:
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
    check_types(FiniteAlgebra, alg=alg)
    _check_congruence_order(alg.n)
    return [Partition._from_rgs(r) for r in _rgs(alg.n) if _incompatible(alg.table, r) is None]


class Finding(NamedTuple):
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
    deadline, least = _deadline(spec), _least_in_orbit(spec.n)
    # the non-product laws ignore the algebra: one sweep with none
    families = _tables(spec, deadline) if TARGETS[target].needs_algebra else [(None, (0, 0), (None,))]
    carrier, swept = None, 0  # what every sweep reads, built at the first one; the algebras done
    for t, (p, q), values in families:
        for v in values:
            if t is not None:
                t[p][q] = v
            if t is None or least(t):  # else its least relabelling came earlier in the stream, with no finding
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
            swept += 1
    return None
