"""Ideal and strong-ideal predicates plus exhaustive enumeration.

The ideal conditions are evaluated against the raw table; no axiom label
is required first, so the same predicate serves every algebra family.

  (1)  zero is a member;
  (2)  x*y in I and y in I  imply  x in I          (pairs);
  (3)  (x*y)*z in I and y in I  imply  x*z in I    (triples).

An ideal satisfies (1) and (2).  A strong ideal satisfies (1) and (3);
condition (3) does not syntactically imply (2) on a raw table, so the two
verdicts are kept independent and both are reported.
"""

import itertools
from dataclasses import dataclass

from .algebra import FiniteAlgebra, collect_witnesses
from .errors import ValidationError
from .sets import Subset, all_subsets


@dataclass(frozen=True)
class IdealReport:
    """Per-condition verdicts for one subset, with violating tuples.

    ``triple_closed`` is None when condition (3) was not evaluated (plain
    is_ideal call).  Witness lists are lexicographically ordered and may
    be capped; each flag always reflects the full exhaustive check.  The
    fields are keys of ``roughalg verify --claim``'s JSON (``subset`` as ``set``).
    """

    subset: Subset
    has_zero: bool
    pair_closed: bool
    triple_closed: bool | None
    pair_witnesses: tuple[tuple[int, int], ...]
    triple_witnesses: tuple[tuple[int, int, int], ...]

    @property
    def is_ideal(self) -> bool:
        return self.has_zero and self.pair_closed

    @property
    def is_strong(self) -> bool | None:
        if self.triple_closed is None:
            return None
        return self.has_zero and self.triple_closed


def _pair_violations(alg: FiniteAlgebra, ideal: Subset):
    t, n = alg.table, alg.n
    return (
        (x, y)
        for x, y in itertools.product(range(n), repeat=2)
        if t[x][y] in ideal and y in ideal and x not in ideal
    )


def _triple_violations(alg: FiniteAlgebra, ideal: Subset):
    t, n = alg.table, alg.n
    return (
        (x, y, z)
        for x, y, z in itertools.product(range(n), repeat=3)
        if t[t[x][y]][z] in ideal and y in ideal and t[x][z] not in ideal
    )


def _report(alg: FiniteAlgebra, ideal: Subset, max_witnesses: int | None, strong: bool) -> IdealReport:
    if ideal.n != alg.n:
        raise ValidationError(f"subset carrier {ideal.n} does not match algebra carrier {alg.n}")
    pair_ok, pair_w = collect_witnesses(_pair_violations(alg, ideal), max_witnesses)
    triple_ok, triple_w = (collect_witnesses(_triple_violations(alg, ideal), max_witnesses) if strong
                           else (None, ()))
    return IdealReport(
        subset=ideal,
        has_zero=alg.zero in ideal,
        pair_closed=pair_ok,
        triple_closed=triple_ok,
        pair_witnesses=pair_w,
        triple_witnesses=triple_w,
    )


def is_ideal(alg: FiniteAlgebra, ideal: Subset, max_witnesses: int | None = None) -> IdealReport:
    """Conditions (1) and (2) only; condition (3) is left unevaluated."""
    return _report(alg, ideal, max_witnesses, strong=False)


def is_strong_ideal(alg: FiniteAlgebra, ideal: Subset, max_witnesses: int | None = None) -> IdealReport:
    """All three conditions, with witnesses per failed condition."""
    return _report(alg, ideal, max_witnesses, strong=True)


def enumerate_ideals(alg: FiniteAlgebra, strong: bool = False, max_order: int = 20) -> list[Subset]:
    """All ideals (or strong ideals) sorted by cardinality then elements.

    Scans the 2^n subset lattice, pruning on condition (1) first; guarded
    by ``max_order`` because of the exponential subset count.
    """
    if alg.n > max_order:
        raise ValidationError(
            f"carrier size {alg.n} exceeds enumeration limit {max_order}; raise max_order to override"
        )
    violations = _triple_violations if strong else _pair_violations
    found = [s for s in all_subsets(alg.n) if alg.zero in s and next(violations(alg, s), None) is None]
    found.sort(key=lambda s: s.sort_key)
    return found
