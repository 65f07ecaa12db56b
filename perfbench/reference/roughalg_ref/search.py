"""Exhaustive model search, congruence enumeration, counterexample hunting.

Table enumeration fixes every cell forced by the single-variable axioms
(C1/C2/C6 pin the diagonal and column zero), then runs a depth-first
search over the remaining cells in row-major order, re-checking the
multi-variable axioms on all fully-determined instances after each
assignment.  Models therefore come out in lexicographic order of the
flattened table, raw tables with no isomorphism rejection, and identical
runs are bit-identical.
"""

import time
from dataclasses import dataclass
from typing import Callable, Iterator

from .algebra import AxiomId, FiniteAlgebra, product_set
from .errors import SearchLimitError, ValidationError
from .relations import Partition, is_complete_congruence, is_congruence
from .rough import ApproximationSpace, check_approx_laws, check_basic_laws, lower, upper
from .sets import Subset, canonical_subsets


@dataclass(frozen=True)
class SearchSpec:
    """What to search: order, axiom constraints, optional hunt target.

    ``algebras`` bypasses model enumeration and sweeps the given tables
    instead (used to hunt over fixed fixtures).  ``model_cap`` and
    ``time_budget`` (seconds) stop the search early with a
    SearchLimitError carrying the exact count for the explored prefix.
    """

    n: int
    axiom_set: tuple[AxiomId, ...] = ()
    target: str | None = None
    model_cap: int | None = None
    time_budget: float | None = None
    algebras: tuple[FiniteAlgebra, ...] | None = None
    max_order: int = 5


def all_partitions(n: int) -> Iterator[Partition]:
    """Every partition of {0..n-1}, in lexicographic order of the
    restricted-growth string (single class first, discrete last)."""
    if n < 1:
        raise ValidationError(f"carrier size must be at least 1, got {n}")
    rgs = [0] * n

    def rec(i: int, mx: int):
        if i == n:
            yield Partition(n, ([j for j in range(n) if rgs[j] == c] for c in range(mx + 1)))
            return
        for v in range(mx + 2):
            rgs[i] = v
            yield from rec(i + 1, max(mx, v))

    yield from rec(1, 0)


def canonical_subset_pairs(n: int) -> Iterator[tuple[Subset, Subset]]:
    """All subset pairs ordered by cardinality then elements, A before B."""
    subs = canonical_subsets(n)
    for a in subs:
        for b in subs:
            yield a, b


def _forced_cells(n: int, axiom_set: tuple[AxiomId, ...], zero: int) -> dict | None:
    """Cells pinned by the one-variable axioms; None when they conflict."""
    forced: dict[tuple[int, int], int] = {}

    def put(cell, v):
        if forced.setdefault(cell, v) != v:
            return False
        return True

    ok = True
    if AxiomId.C1 in axiom_set:
        for x in range(n):
            ok = put((x, x), zero) and ok
    if AxiomId.C6 in axiom_set:
        for x in range(n):
            ok = put((x, x), x) and ok
    if AxiomId.C2 in axiom_set:
        for x in range(n):
            ok = put((x, zero), x) and ok
    return forced if ok else None


def _partial_checkers(n: int, zero: int, axiom_set, t) -> list[Callable[[], bool]]:
    """Axiom checkers tolerant of undetermined (-1) cells.

    Each returns False only when some fully-determined instance is
    violated, so they are safe to run after every partial assignment.
    """
    rng = range(n)
    checkers = []

    if AxiomId.C3 in axiom_set:
        def check_c3():
            tz = t[zero]
            for x in rng:
                tx = t[x]
                for y in rng:
                    a = tx[y]
                    c = tz[y]
                    if a < 0 or c < 0:
                        continue
                    ta = t[a]
                    for z in rng:
                        left = ta[z]
                        if left < 0:
                            continue
                        d = t[z][c]
                        if d < 0:
                            continue
                        right = tx[d]
                        if right >= 0 and left != right:
                            return False
            return True
        checkers.append(check_c3)

    if AxiomId.C5 in axiom_set:
        def check_c5():
            tz = t[zero]
            for x in rng:
                tx = t[x]
                for y in rng:
                    c = tx[y]
                    ty = t[y]
                    for z in rng:
                        a = ty[z]
                        if a < 0:
                            continue
                        left = tx[a]
                        if left < 0 or c < 0:
                            continue
                        d = tz[z]
                        if d < 0:
                            continue
                        right = t[c][d]
                        if right >= 0 and left != right:
                            return False
            return True
        checkers.append(check_c5)

    if AxiomId.C4 in axiom_set:
        def check_c4():
            for x in rng:
                for y in rng:
                    if x != y and t[x][y] == zero and t[y][x] == zero:
                        return False
            return True
        checkers.append(check_c4)

    if AxiomId.C7 in axiom_set:
        def check_c7():
            for x in rng:
                if x == zero:
                    continue
                tx = t[x]
                for y in rng:
                    if y == zero:
                        continue
                    a, b = tx[y], t[y][x]
                    if a >= 0 and b >= 0 and a != b:
                        return False
            return True
        checkers.append(check_c7)

    return checkers


def enumerate_algebras(spec: SearchSpec, sink: Callable[[FiniteAlgebra], None] | None = None) -> int:
    """Count (and optionally emit) every table satisfying the axiom set.

    Emission order is lexicographic in the flattened table.  Every
    satisfying table is emitted exactly once; no isomorphism rejection.
    """
    n = spec.n
    if n < 1:
        raise ValidationError(f"order must be at least 1, got {n}")
    if not spec.axiom_set:
        raise ValidationError("axiom_set must be nonempty for model search")
    if n > spec.max_order:
        raise ValidationError(
            f"order {n} exceeds search limit {spec.max_order}; raise max_order to override"
        )
    zero = 0
    forced = _forced_cells(n, spec.axiom_set, zero)
    if forced is None:
        return 0

    t = [[-1] * n for _ in range(n)]
    for (x, y), v in forced.items():
        t[x][y] = v
    cells = [(x, y) for x in range(n) for y in range(n) if (x, y) not in forced]
    checkers = _partial_checkers(n, zero, spec.axiom_set, t)

    deadline = None if spec.time_budget is None else time.monotonic() + spec.time_budget
    state = {"count": 0, "nodes": 0}

    def consistent() -> bool:
        return all(c() for c in checkers)

    def visit_leaf():
        state["count"] += 1
        if sink is not None:
            sink(FiniteAlgebra(n, [row[:] for row in t], zero))
        if spec.model_cap is not None and state["count"] >= spec.model_cap:
            raise SearchLimitError("model cap reached", count=state["count"], reason="model-cap")

    if not consistent():
        return 0

    def dfs(i: int):
        if i == len(cells):
            visit_leaf()
            return
        x, y = cells[i]
        for v in range(n):
            state["nodes"] += 1
            if deadline is not None and state["nodes"] % 256 == 0 and time.monotonic() > deadline:
                raise SearchLimitError("time budget exceeded", count=state["count"], reason="time")
            t[x][y] = v
            if consistent():
                dfs(i + 1)
            t[x][y] = -1

    dfs(0)
    return state["count"]


def enumerate_congruences(alg: FiniteAlgebra, max_order: int = 6) -> list[Partition]:
    """All congruence partitions, in canonical partition order.

    Always contains the single-class and discrete partitions.  Guarded by
    ``max_order`` because the partition count grows like the Bell numbers.
    """
    if alg.n > max_order:
        raise ValidationError(
            f"carrier size {alg.n} exceeds congruence enumeration limit {max_order}"
        )
    return [p for p in all_partitions(alg.n) if is_congruence(alg, p).holds]


@dataclass(frozen=True)
class Finding:
    """A concrete counterexample: where it happened and the witness tuple."""

    target: str
    witness: tuple
    algebra: FiniteAlgebra | None = None
    partition: Partition | None = None
    subset_a: Subset | None = None
    subset_b: Subset | None = None
    note: str = ""


@dataclass(frozen=True)
class _Target:
    needs_algebra: bool
    # partition scope: "all", "congruence", "congruence-complete", "congruence-incomplete"
    scope: str
    law: str
    suite: str  # "pawlak", "basic", or "product"


def _law_targets() -> dict[str, _Target]:
    targets = {}
    for i in range(1, 11):
        targets[f"2-1:{i}"] = _Target(False, "all", str(i), "pawlak")
    for law in ("11a", "11b", "12"):
        targets[f"2-1:{law}"] = _Target(True, "congruence", law, "pawlak")
    for i in range(1, 7):
        targets[f"3-1:{i}"] = _Target(False, "all", str(i), "basic")
    targets["3-2:1"] = _Target(True, "congruence", "product-upper", "product")
    targets["3-2:2"] = _Target(True, "congruence", "product-lower", "product")
    targets["3-2:2-complete"] = _Target(True, "congruence-complete", "product-lower", "product")
    targets["3-2:2-incomplete"] = _Target(True, "congruence-incomplete", "product-lower", "product")
    return targets


TARGETS = _law_targets()


def _eval_product_law(alg, space, law, a, b):
    """Witness for a product-law violation, honoring the part-2 guard."""
    ab = product_set(alg, a, b)
    if law == "product-upper":
        excess = product_set(alg, upper(space, a), upper(space, b)) - upper(space, ab)
        return (next(iter(excess)),) if excess else None
    lab = lower(space, ab)
    if not lab:
        return None  # guard: the law only speaks when lower(A*B) is nonempty
    excess = product_set(alg, lower(space, a), lower(space, b)) - lab
    return (next(iter(excess)),) if excess else None


def _eval_suite_law(space, suite, law, a, b):
    results = check_approx_laws(space, a, b) if suite == "pawlak" else check_basic_laws(space, a, b)
    for r in results:
        if r.law == law:
            return None if r.holds or r.holds is None else r.witness
    raise ValidationError(f"law {law!r} not present in suite {suite!r}")


def _sweep_partitions(alg, target_id, target, pairs, deadline):
    """First finding over the congruences of one algebra, canonical order."""
    for p in enumerate_congruences(alg):
        complete = is_complete_congruence(alg, p).holds
        if target.scope == "congruence-complete" and not complete:
            continue
        if target.scope == "congruence-incomplete" and complete:
            continue
        space = ApproximationSpace(partition=p, algebra=alg)
        note = "complete congruence" if complete else "congruence, not complete"
        for a, b in pairs:
            if deadline is not None and time.monotonic() > deadline:
                raise SearchLimitError("time budget exceeded", count=0, reason="time")
            if target.suite == "product":
                witness = _eval_product_law(alg, space, target.law, a, b)
            else:
                witness = _eval_suite_law(space, target.suite, target.law, a, b)
            if witness is not None:
                return Finding(
                    target=target_id, witness=witness, algebra=alg, partition=p,
                    subset_a=a, subset_b=b, note=note,
                )
    return None


class _FoundIt(Exception):
    def __init__(self, finding):
        self.finding = finding


def find_counterexample(spec: SearchSpec) -> Finding | None:
    """First counterexample to the target property, or None.

    Search order is canonical throughout: algebras lexicographic (or the
    given fixed list in order), partitions in canonical order, subset
    pairs by cardinality then elements; identical specs therefore return
    identical findings.  Targets whose laws never touch the operation
    (the non-product laws) sweep bare partitions and ignore the axiom
    set; the Finding then carries no algebra.
    """
    if spec.target not in TARGETS:
        raise ValidationError(
            f"unknown target {spec.target!r}; known: {', '.join(sorted(TARGETS))}"
        )
    target = TARGETS[spec.target]
    deadline = None if spec.time_budget is None else time.monotonic() + spec.time_budget
    pairs = list(canonical_subset_pairs(spec.n))

    if not target.needs_algebra:
        # the algebra plays no role in these laws; sweep bare partitions
        for p in all_partitions(spec.n):
            space = ApproximationSpace(partition=p)
            for a, b in pairs:
                if deadline is not None and time.monotonic() > deadline:
                    raise SearchLimitError("time budget exceeded", count=0, reason="time")
                witness = _eval_suite_law(space, target.suite, target.law, a, b)
                if witness is not None:
                    return Finding(target=spec.target, witness=witness, partition=p,
                                   subset_a=a, subset_b=b)
        return None

    def sweep(alg):
        return _sweep_partitions(alg, spec.target, target, pairs, deadline)

    if spec.algebras is not None:
        for alg in spec.algebras:
            if alg.n != spec.n:
                raise ValidationError(f"fixed algebra has order {alg.n}, spec says {spec.n}")
            finding = sweep(alg)
            if finding is not None:
                return finding
        return None

    def sink(alg):
        finding = sweep(alg)
        if finding is not None:
            raise _FoundIt(finding)

    try:
        enumerate_algebras(spec, sink)
    except _FoundIt as e:
        return e.finding
    return None
