"""Approximation operators over a partition, and the law registry.

``lower(space, A)`` collects the elements whose class sits inside A;
``upper(space, A)`` those whose class meets A.  The boundary is their
difference; A is rough when the boundary is nonempty and definable
otherwise.  Each law of the suites 2-1, 3-1 and 3-2 is defined once, in
``LAWS``, as a predicate on integer masks that reads ``L[m]``, ``U[m]``
(lower and upper approximation) and ``P[a][b]`` (set product): from full
tables in the exhaustive ``sweep_laws``, and computed on demand in the
single-pair views ``check_approx_laws``, ``check_basic_laws`` and
``check_congruence_product_laws``.
"""

import time
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .algebra import FiniteAlgebra, _low, product_mask
from .errors import SearchLimitError, ValidationError
from .relations import Partition, _completeness, is_congruence, require_congruence
from .sets import Subset, canonical_subsets


@dataclass(frozen=True)
class ApproximationSpace:
    """A partitioned carrier; the algebra is only needed for product laws."""

    partition: Partition
    algebra: FiniteAlgebra | None = None

    def __post_init__(self):
        if self.algebra is not None and self.algebra.n != self.partition.n:
            raise ValidationError(
                f"algebra carrier {self.algebra.n} does not match partition carrier {self.partition.n}"
            )

    @property
    def n(self) -> int:
        return self.partition.n


@dataclass(frozen=True)
class RoughPair:
    lower: Subset
    upper: Subset


def _check_subset(space: ApproximationSpace, a: Subset) -> None:
    if a.n != space.n:
        raise ValidationError(f"subset carrier {a.n} does not match space carrier {space.n}")


def _upper_mask(p: Partition, m: int) -> int:
    out = 0
    for c in p.classes:
        if c.mask & m:
            out |= c.mask
    return out


def _lower_mask(p: Partition, m: int) -> int:
    full = (1 << p.n) - 1
    return full ^ _upper_mask(p, full ^ m)


def lower(space: ApproximationSpace, a: Subset) -> Subset:
    """Union of the classes entirely inside a."""
    _check_subset(space, a)
    return Subset._raw(space.n, _lower_mask(space.partition, a.mask))


def upper(space: ApproximationSpace, a: Subset) -> Subset:
    """Union of the classes meeting a."""
    _check_subset(space, a)
    return Subset._raw(space.n, _upper_mask(space.partition, a.mask))


def boundary(space: ApproximationSpace, a: Subset) -> Subset:
    return upper(space, a) - lower(space, a)


def is_rough(space: ApproximationSpace, a: Subset) -> bool:
    return bool(boundary(space, a))


def is_definable(space: ApproximationSpace, a: Subset) -> bool:
    return not is_rough(space, a)


def rough_pair(space: ApproximationSpace, a: Subset) -> RoughPair:
    return RoughPair(lower=lower(space, a), upper=upper(space, a))


# ---------------------------------------------------------------- mask contexts

# What a law predicate reads: L[m], U[m], P[a][b] and the full mask.
_Masks = namedtuple("_Masks", "L U P full")


class _OnDemand(dict):
    """Indexable like a table; computes each entry when it is first read."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        return self.setdefault(key, self.fn(key))


def _on_demand(p: Partition, alg: FiniteAlgebra | None) -> _Masks:
    return _Masks(_OnDemand(lambda m: _lower_mask(p, m)), _OnDemand(lambda m: _upper_mask(p, m)),
                  _OnDemand(lambda a: _OnDemand(lambda b: product_mask(alg, a, b))), (1 << p.n) - 1)


def _tables(p: Partition, P: list[list[int]] | None) -> _Masks:
    """Context of a sweep: L[m] and U[m] of p for every mask m, and products P."""
    masks = range(1 << p.n)
    return _Masks([_lower_mask(p, m) for m in masks], [_upper_mask(p, m) for m in masks], P, len(masks) - 1)


def _product_table(alg: FiniteAlgebra) -> list[list[int]]:
    """P[a][b] for every mask pair: P[a] = P[a - x] | R[x][b], x the lowest
    element of a and R[x][b] the image of b under row x."""
    size = 1 << alg.n
    R = [[product_mask(alg, 1 << x, b) for b in range(size)] for x in range(alg.n)]
    P = [[0] * size]
    for a in range(1, size):
        low = a & -a
        P.append([x | y for x, y in zip(P[a ^ low], R[low.bit_length() - 1])])
    return P


# ---------------------------------------------------------------- the registry

def _inclusion(x: int, y: int):
    d = x & ~y
    return (_low(d),) if d else None


def _equal(x: int, y: int):
    if x == y:
        return None
    d = x & ~y
    return ("left-minus-right", _low(d)) if d else ("right-minus-left", _low(y & ~x))


def _bounds(c, a, b):
    d = c.L[a] & ~a
    if d:
        return ("lower-outside-set", _low(d))
    d = a & ~c.U[a]
    return ("set-outside-upper", _low(d)) if d else None


def _extremes(c, a, b):
    if c.L[0] or c.U[0]:
        return ("empty",)
    return ("universe",) if c.L[c.full] != c.full or c.U[c.full] != c.full else None


# Returned by a predicate whose premise or guard does not hold on the pair.
_UNMET = "unmet"


def _monotone(c, a, b):
    if a & ~b:
        return _UNMET
    d = c.L[a] & ~c.L[b]
    if d:
        return ("lower", _low(d))
    d = c.U[a] & ~c.U[b]
    return ("upper", _low(d)) if d else None


def _guarded_product_lower(c, a, b):
    lab = c.L[c.P[a][b]]
    return _inclusion(c.P[c.L[a]][c.L[b]], lab) if lab else _UNMET


GATED, MEASURED, GATED_IF_COMPLETE = "gated", "measured", "gated-if-complete"


class Law(NamedTuple):
    """One law, for every suite it belongs to: ``suites`` maps a suite id to
    (local number, role).  GATED laws decide the verdict, MEASURED ones are
    counted, GATED_IF_COMPLETE ones are gated under complete congruences
    only.  ``check(ctx, a, b)`` returns None when the law holds on masks a
    and b, the witness when it fails, and ``_UNMET`` when its premise or
    guard does not hold, which reports as ``unmet`` = (holds, note).
    """

    id: str
    description: str
    suites: dict[str, tuple[str, str]]
    check: Callable
    needs_algebra: bool = False
    per_partition: bool = False
    unmet: tuple[bool | None, str] | None = None


LAWS: tuple[Law, ...] = (
    Law("bounds", "lower(A) <= A <= upper(A)", {"2-1": ("1", GATED), "3-1": ("1", GATED)}, _bounds),
    Law("extremes", "extremes are fixed points", {"2-1": ("2", GATED)}, _extremes, per_partition=True),
    Law("lower-join", "lower(A) | lower(B) <= lower(A | B)", {"2-1": ("3", GATED), "3-1": ("5", GATED)},
        lambda c, a, b: _inclusion(c.L[a] | c.L[b], c.L[a | b])),
    Law("lower-meet", "lower(A & B) = lower(A) & lower(B)", {"2-1": ("4", GATED), "3-1": ("3", GATED)},
        lambda c, a, b: _equal(c.L[a & b], c.L[a] & c.L[b])),
    Law("upper-join", "upper(A | B) = upper(A) | upper(B)", {"2-1": ("5", GATED), "3-1": ("2", GATED)},
        lambda c, a, b: _equal(c.U[a | b], c.U[a] | c.U[b])),
    Law("upper-meet", "upper(A & B) <= upper(A) & upper(B)", {"2-1": ("6", GATED), "3-1": ("6", GATED)},
        lambda c, a, b: _inclusion(c.U[a & b], c.U[a] & c.U[b])),
    Law("upper-dual", "upper(~A) = ~lower(A)", {"2-1": ("7", GATED)},
        lambda c, a, b: _equal(c.U[c.full ^ a], c.full ^ c.L[a])),
    Law("lower-dual", "lower(~A) = ~upper(A)", {"2-1": ("8", GATED)},
        lambda c, a, b: _equal(c.L[c.full ^ a], c.full ^ c.U[a])),
    Law("lower-fixed", "lower(A) is a fixed point of both operators", {"2-1": ("9", GATED)},
        lambda c, a, b: _equal(c.L[c.L[a]], c.L[a]) or _equal(c.U[c.L[a]], c.L[a])),
    Law("upper-fixed", "upper(A) is a fixed point of both operators", {"2-1": ("10", GATED)},
        lambda c, a, b: _equal(c.U[c.U[a]], c.U[a]) or _equal(c.L[c.U[a]], c.U[a])),
    Law("monotone", "A <= B implies monotone approximations", {"3-1": ("4", GATED)}, _monotone,
        unmet=(True, "premise A <= B does not hold; vacuously true")),
    Law("product-upper", "upper(A)*upper(B) <= upper(A*B)", {"2-1": ("11a", MEASURED), "3-2": ("1", GATED)},
        lambda c, a, b: _inclusion(c.P[c.U[a]][c.U[b]], c.U[c.P[a][b]]), needs_algebra=True),
    Law("product-upper-converse", "upper(A*B) <= upper(A)*upper(B)", {"2-1": ("11b", MEASURED)},
        lambda c, a, b: _inclusion(c.U[c.P[a][b]], c.P[c.U[a]][c.U[b]]), needs_algebra=True),
    # 2-1 law 12 reads the inclusion as is; 3-2 law 2 speaks only when lower(A*B) is nonempty
    Law("product-lower-unguarded", "lower(A)*lower(B) <= lower(A*B)", {"2-1": ("12", MEASURED)},
        lambda c, a, b: _inclusion(c.P[c.L[a]][c.L[b]], c.L[c.P[a][b]]), needs_algebra=True),
    Law("product-lower", "lower(A)*lower(B) <= lower(A*B)", {"3-2": ("2", GATED_IF_COMPLETE)},
        _guarded_product_lower, needs_algebra=True, unmet=(None, "guard not met: lower(A*B) is empty")),
)

# suite id -> [(local number, role, law)] in suite order; 11a and 11b sort between 10 and 12
SUITES: dict[str, list[tuple[str, str, Law]]] = {
    suite: sorted(((*law.suites[suite], law) for law in LAWS if suite in law.suites),
                  key=lambda m: (int(m[0].rstrip("ab")), m[0]))
    for suite in ("2-1", "3-1", "3-2")
}


# ---------------------------------------------------------------- single-pair views

@dataclass(frozen=True)
class LawResult:
    """One law evaluated on concrete inputs.

    ``holds`` is None when the law was not applicable (missing algebra, or
    an unmet guard); ``witness`` pins the first offending element.
    """

    law: str
    description: str
    holds: bool | None
    witness: tuple | None = None
    note: str | None = None


def _result(label: str, law: Law, ctx: _Masks, a: Subset, b: Subset, note: str | None) -> LawResult:
    w = law.check(ctx, a.mask, b.mask)
    if w is _UNMET:
        return LawResult(label, law.description, law.unmet[0], note=law.unmet[1])
    return LawResult(label, law.description, w is None, w, note)


def _congruence_note(alg: FiniteAlgebra, p: Partition) -> tuple[bool | None, str]:
    """(complete, note): completeness is None when p is no congruence of alg."""
    if not is_congruence(alg, p).holds:
        return None, "partition is not a congruence of the algebra"
    if _completeness(alg, p).holds:
        return True, "partition is a complete congruence of the algebra"
    return False, "partition is a congruence of the algebra, but not complete"


def _suite_view(suite: str, space: ApproximationSpace, a: Subset, b: Subset) -> tuple[LawResult, ...]:
    _check_subset(space, a)
    _check_subset(space, b)
    p, alg = space.partition, space.algebra
    note = None
    if alg is not None and any(law.needs_algebra for _, _, law in SUITES[suite]):
        note = _congruence_note(alg, p)[1]
    ctx = _on_demand(p, alg)
    return tuple(
        LawResult(number, law.description, None, note="needs an algebra")
        if law.needs_algebra and alg is None
        else _result(number, law, ctx, a, b, note if law.needs_algebra else None)
        for number, _, law in SUITES[suite]
    )


def check_approx_laws(space: ApproximationSpace, a: Subset, b: Subset) -> tuple[LawResult, ...]:
    """Suite 2-1: the twelve classic laws evaluated on (a, b).

    Laws 1-10 involve only the approximation operators and are theorems;
    laws 11a/11b/12 involve the algebra's set product and are evaluated as
    observations (holds-here verdicts), with 11 reported one inclusion
    direction at a time.  Without an algebra they come back as
    not-applicable.
    """
    return _suite_view("2-1", space, a, b)


def check_basic_laws(space: ApproximationSpace, a: Subset, b: Subset) -> tuple[LawResult, ...]:
    """Suite 3-1: bounds, union/intersection laws, monotonicity."""
    return _suite_view("3-1", space, a, b)


@dataclass(frozen=True)
class ProductLawReport:
    """Product laws under a congruence, with the completeness caveat.

    The upper inclusion is a theorem for any congruence.  The lower
    inclusion (evaluated only when lower(A*B) is nonempty) is a theorem
    only under a complete congruence, which is why the report records
    whether the congruence is complete.  Results carry the law's registry id.
    """

    upper_inclusion: LawResult
    lower_inclusion: LawResult
    congruence_complete: bool


def check_congruence_product_laws(
    alg: FiniteAlgebra, p: Partition, a: Subset, b: Subset
) -> ProductLawReport:
    """Suite 3-2: both product laws under a congruence partition.

    Raises PreconditionError (with the compatibility witness) when p is
    not a congruence of alg.
    """
    require_congruence(alg, p)
    for s in (a, b):
        _check_subset(ApproximationSpace(partition=p), s)
    ctx = _on_demand(p, alg)
    up, low = (_result(law.id, law, ctx, a, b, None) for _, _, law in SUITES["3-2"])
    return ProductLawReport(up, low, _completeness(alg, p).holds)


# ---------------------------------------------------------------- exhaustive sweeps

class LawFailure(NamedTuple):
    """A law (by its local number) failing on a partition and subset pair.  With
    an algebra, ``note`` and ``complete`` (None: no congruence) describe the partition."""

    law: str
    partition: Partition
    a: Subset
    b: Subset
    witness: tuple
    note: str | None
    complete: bool | None


class LawTally:
    __slots__ = ("holds", "fails", "not_applicable", "first_failure")

    def __init__(self):
        self.holds = self.fails = self.not_applicable = 0
        self.first_failure: LawFailure | None = None


class LawSweep:
    """``violations``: every failure of a law in a gated role, in sweep order (partition,
    A, B, suite order); ``gated``, ``measured``: a LawTally per law over the evaluations
    it had that role in; ``first_failure``: the first failure of any law."""

    def __init__(self, pairs: int):
        self.pairs, self.partitions, self.first_failure = pairs, 0, None
        self.violations, self.gated, self.measured = [], {}, {}


def sweep_laws(suite: str, partitions: Sequence[Partition], algebra: FiniteAlgebra | None = None, *,
               hunt: str | None = None, complete: bool | None = None,
               deadline: float | None = None) -> LawSweep:
    """Evaluate a suite's laws over every partition x subset pair.

    Partitions come in the given order, subset pairs in canonical order (A
    outer, B inner, each by cardinality then elements).  Without an
    algebra the laws that need one are not applicable.  ``hunt`` names one
    law by its local number: only it is evaluated, and the sweep stops at
    its first failure.  ``complete`` keeps the partitions whose
    complete-congruence verdict equals it.  ``deadline`` (a
    ``time.monotonic()`` value) is checked once per partition; past it the
    sweep raises SearchLimitError.
    """
    members = [m for m in SUITES.get(suite, ()) if hunt in (None, m[0])]
    partitions = list(partitions)
    n = partitions[0].n if partitions else 0
    if not members or not partitions or any(p.n != n for p in partitions) or (
            algebra is not None and algebra.n != n):
        raise ValidationError(f"sweep_laws needs a law of suite {suite!r} and partitions on one carrier")
    order = [s.mask for s in canonical_subsets(n)]
    sweep = LawSweep(pairs=len(order) ** 2)
    uses_algebra = algebra is not None and (complete is not None or any(m[2].needs_algebra for m in members))
    P = _product_table(algebra) if uses_algebra else None
    for p in partitions:
        if deadline is not None and time.monotonic() >= deadline:
            raise SearchLimitError("time budget exceeded", count=0, reason="time")
        is_complete, note = _congruence_note(algebra, p) if uses_algebra else (None, None)
        if complete is not None and bool(is_complete) != complete:
            continue
        sweep.partitions += 1
        ctx = _tables(p, P)
        active = []
        for number, role, law in members:
            gated = role == GATED or (role == GATED_IF_COMPLETE and bool(is_complete))
            tally = (sweep.gated if gated else sweep.measured).setdefault(number, LawTally())
            if law.needs_algebra and algebra is None:
                tally.not_applicable += sweep.pairs
                continue
            tally.holds += sweep.pairs  # taken back for each pair the law does not hold on
            if law.per_partition and law.check(ctx, 0, 0) is None:
                continue  # holds on every pair of this partition
            active.append((law.check, number, law, tally, gated, note if law.needs_algebra else None))
        for a in order if active else ():
            for b in order:
                for entry in active:
                    w = entry[0](ctx, a, b)
                    if w is None:
                        continue
                    _, number, law, tally, gated, law_note = entry
                    if w is _UNMET and law.unmet[0]:
                        continue
                    tally.holds -= 1
                    if w is _UNMET:
                        tally.not_applicable += 1
                        continue
                    tally.fails += 1
                    if gated or tally.first_failure is None:
                        failure = LawFailure(number, p, Subset._raw(n, a), Subset._raw(n, b), w,
                                             law_note, is_complete)
                        tally.first_failure = tally.first_failure or failure
                        if gated:
                            sweep.violations.append(failure)
                        if sweep.first_failure is None:
                            sweep.first_failure = failure
                            if hunt is not None:
                                return sweep
    return sweep
