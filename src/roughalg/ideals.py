"""Ideal and strong-ideal predicates plus exhaustive enumeration.

The ideal conditions are evaluated against the raw table; no axiom label
is required first, so the same predicate serves every algebra family.

  (1)  zero is a member;
  (2)  x*y in I and y in I  imply  x in I          (pairs);
  (3)  (x*y)*z in I and y in I  imply  x*z in I    (triples).

An ideal satisfies (1) and (2).  A strong ideal satisfies (1) and (3);
condition (3) does not syntactically imply (2) on a raw table, so the two
verdicts are kept independent and both are reported.  Conditions (2) and
(3) read the candidate's mask, so enumeration tests masks and builds a
``Subset`` only for each ideal it returns.
"""

from typing import NamedTuple

from .algebra import FiniteAlgebra, collect_witnesses
from .errors import ValidationError, check_types
from .sets import Subset, canonical_masks


class IdealReport(NamedTuple):
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


def _pair_violations(alg: FiniteAlgebra, m: int):
    """The pairs (x, y) violating (2) for the subset with mask m, in lexicographic order."""
    t, inside = alg.table, [y for y in range(alg.n) if m >> y & 1]
    return ((x, y) for x in range(alg.n) if not m >> x & 1 for y in inside if m >> t[x][y] & 1)


def _triple_violations(alg: FiniteAlgebra, m: int):
    """The triples (x, y, z) violating (3) for the subset with mask m, in lexicographic order."""
    t, n, inside = alg.table, alg.n, [y for y in range(alg.n) if m >> y & 1]
    return ((x, y, z) for x in range(n) for y in inside for z in range(n)
            if m >> t[t[x][y]][z] & 1 and not m >> t[x][z] & 1)


def _report(alg: FiniteAlgebra, ideal: Subset, max_witnesses: int | None, strong: bool) -> IdealReport:
    check_types(FiniteAlgebra, alg=alg)
    check_types(Subset, ideal=ideal)
    if ideal.n != alg.n:
        raise ValidationError(f"subset carrier {ideal.n} does not match algebra carrier {alg.n}")
    pair_ok, pair_w = collect_witnesses(_pair_violations(alg, ideal.mask), max_witnesses)
    triple_ok, triple_w = (collect_witnesses(_triple_violations(alg, ideal.mask), max_witnesses) if strong
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


# the subset count doubles with each element: no carrier above this is scanned
IDEAL_ORDER_LIMIT = 20


def enumerate_ideals(alg: FiniteAlgebra, strong: bool = False) -> list[Subset]:
    """All ideals (or strong ideals) sorted by cardinality then elements.

    Walks the subset masks in that canonical order, skips those without zero
    and tests the rest against condition (2) (or (3)); guarded by
    ``IDEAL_ORDER_LIMIT`` because of the exponential subset count.
    """
    check_types(FiniteAlgebra, alg=alg)
    check_types(bool, strong=strong)
    if alg.n > IDEAL_ORDER_LIMIT:
        raise ValidationError(f"carrier size {alg.n} exceeds enumeration limit {IDEAL_ORDER_LIMIT}")
    violations, zero = _triple_violations if strong else _pair_violations, 1 << alg.zero
    return [Subset._raw(alg.n, m) for m in canonical_masks(alg.n)
            if m & zero and next(violations(alg, m), None) is None]
