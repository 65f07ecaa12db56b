"""Approximation operators over a partition, and the classic law suites.

``lower(space, A)`` collects the elements whose class sits inside A;
``upper(space, A)`` those whose class meets A.  The boundary is their
difference; A is rough when the boundary is nonempty and definable
otherwise.  The law-suite checkers evaluate the standard identities and
inclusions of these operators on concrete inputs, plus two product laws
that involve the algebra's operation.
"""

from dataclasses import dataclass
from functools import lru_cache

from .algebra import FiniteAlgebra, product_set
from .errors import PreconditionError, ValidationError
from .relations import Partition, is_complete_congruence, is_congruence
from .sets import Subset

# Congruence status depends only on the (algebra, partition) pair, both
# immutable, but law sweeps ask for it once per subset pair; cache it.
_congruence_cached = lru_cache(maxsize=4096)(is_congruence)
_complete_cached = lru_cache(maxsize=4096)(is_complete_congruence)


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


def lower(space: ApproximationSpace, a: Subset) -> Subset:
    """Union of the classes entirely inside a."""
    _check_subset(space, a)
    mask = 0
    for c in space.partition.classes:
        if c.mask & ~a.mask == 0:
            mask |= c.mask
    return Subset._raw(space.n, mask)


def upper(space: ApproximationSpace, a: Subset) -> Subset:
    """Union of the classes meeting a."""
    _check_subset(space, a)
    mask = 0
    for c in space.partition.classes:
        if c.mask & a.mask:
            mask |= c.mask
    return Subset._raw(space.n, mask)


def boundary(space: ApproximationSpace, a: Subset) -> Subset:
    return upper(space, a) - lower(space, a)


def is_rough(space: ApproximationSpace, a: Subset) -> bool:
    return bool(boundary(space, a))


def is_definable(space: ApproximationSpace, a: Subset) -> bool:
    return not is_rough(space, a)


def rough_pair(space: ApproximationSpace, a: Subset) -> RoughPair:
    return RoughPair(lower=lower(space, a), upper=upper(space, a))


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


def _first_excess(x: Subset, y: Subset) -> int | None:
    """First element of x \\ y, or None when x is a subset of y."""
    return next(iter(x - y), None)


def _equality_witness(x: Subset, y: Subset) -> tuple | None:
    e = _first_excess(x, y)
    if e is not None:
        return ("left-minus-right", e)
    e = _first_excess(y, x)
    if e is not None:
        return ("right-minus-left", e)
    return None


def _inclusion_law(law: str, description: str, x: Subset, y: Subset, note=None) -> LawResult:
    e = _first_excess(x, y)
    return LawResult(law, description, e is None, None if e is None else (e,), note)


def _equality_law(law: str, description: str, x: Subset, y: Subset, note=None) -> LawResult:
    w = _equality_witness(x, y)
    return LawResult(law, description, w is None, w, note)


def _congruence_note(space: ApproximationSpace) -> str | None:
    if space.algebra is None:
        return None
    cong = _congruence_cached(space.algebra, space.partition)
    if not cong.holds:
        return "partition is not a congruence of the algebra"
    if _complete_cached(space.algebra, space.partition).holds:
        return "partition is a complete congruence of the algebra"
    return "partition is a congruence of the algebra, but not complete"


def check_approx_laws(space: ApproximationSpace, a: Subset, b: Subset) -> tuple[LawResult, ...]:
    """The twelve classic laws evaluated on (a, b).

    Laws 1-10 involve only the approximation operators and are theorems;
    laws 11a/11b/12 involve the algebra's set product and are evaluated as
    observations (holds-here verdicts), with 11 reported one inclusion
    direction at a time.  Without an algebra they come back as
    not-applicable.
    """
    _check_subset(space, a)
    _check_subset(space, b)
    n = space.n
    empty, full = Subset.empty(n), Subset.universe(n)
    la, ua = lower(space, a), upper(space, a)
    lb, ub = lower(space, b), upper(space, b)
    results = []

    w = _first_excess(la, a)
    if w is None:
        w = _first_excess(a, ua)
        witness = None if w is None else ("set-outside-upper", w)
    else:
        witness = ("lower-outside-set", w)
    results.append(LawResult("1", "lower(A) <= A <= upper(A)", witness is None, witness))

    for sub, name in ((empty, "empty"), (full, "universe")):
        if lower(space, sub) != sub or upper(space, sub) != sub:
            results.append(LawResult("2", "extremes are fixed points", False, (name,)))
            break
    else:
        results.append(LawResult("2", "extremes are fixed points", True))

    results.append(_inclusion_law("3", "lower(A) | lower(B) <= lower(A | B)", la | lb, lower(space, a | b)))
    results.append(_equality_law("4", "lower(A & B) = lower(A) & lower(B)", lower(space, a & b), la & lb))
    results.append(_equality_law("5", "upper(A | B) = upper(A) | upper(B)", upper(space, a | b), ua | ub))
    results.append(_inclusion_law("6", "upper(A & B) <= upper(A) & upper(B)", upper(space, a & b), ua & ub))
    results.append(_equality_law("7", "upper(~A) = ~lower(A)", upper(space, a.complement()), la.complement()))
    results.append(_equality_law("8", "lower(~A) = ~upper(A)", lower(space, a.complement()), ua.complement()))

    idem9 = _equality_witness(lower(space, la), la) or _equality_witness(upper(space, la), la)
    results.append(LawResult("9", "lower(A) is a fixed point of both operators", idem9 is None, idem9))
    idem10 = _equality_witness(upper(space, ua), ua) or _equality_witness(lower(space, ua), ua)
    results.append(LawResult("10", "upper(A) is a fixed point of both operators", idem10 is None, idem10))

    alg = space.algebra
    if alg is None:
        na = "needs an algebra"
        results.append(LawResult("11a", "upper(A)*upper(B) <= upper(A*B)", None, note=na))
        results.append(LawResult("11b", "upper(A*B) <= upper(A)*upper(B)", None, note=na))
        results.append(LawResult("12", "lower(A)*lower(B) <= lower(A*B)", None, note=na))
    else:
        note = _congruence_note(space)
        uab = upper(space, product_set(alg, a, b))
        uprod = product_set(alg, ua, ub)
        results.append(_inclusion_law("11a", "upper(A)*upper(B) <= upper(A*B)", uprod, uab, note))
        results.append(_inclusion_law("11b", "upper(A*B) <= upper(A)*upper(B)", uab, uprod, note))
        lab = lower(space, product_set(alg, a, b))
        results.append(_inclusion_law("12", "lower(A)*lower(B) <= lower(A*B)", product_set(alg, la, lb), lab, note))
    return tuple(results)


def check_basic_laws(space: ApproximationSpace, a: Subset, b: Subset) -> tuple[LawResult, ...]:
    """The six-law subset: bounds, union/intersection laws, monotonicity."""
    _check_subset(space, a)
    _check_subset(space, b)
    la, ua = lower(space, a), upper(space, a)
    lb, ub = lower(space, b), upper(space, b)
    results = []

    w = _first_excess(la, a)
    if w is None:
        w = _first_excess(a, ua)
        witness = None if w is None else ("set-outside-upper", w)
    else:
        witness = ("lower-outside-set", w)
    results.append(LawResult("1", "lower(A) <= A <= upper(A)", witness is None, witness))

    results.append(_equality_law("2", "upper(A | B) = upper(A) | upper(B)", upper(space, a | b), ua | ub))
    results.append(_equality_law("3", "lower(A & B) = lower(A) & lower(B)", lower(space, a & b), la & lb))

    if a.issubset(b):
        w = _first_excess(la, lb)
        witness = None if w is None else ("lower", w)
        if witness is None:
            w = _first_excess(ua, ub)
            witness = None if w is None else ("upper", w)
        results.append(LawResult("4", "A <= B implies monotone approximations", witness is None, witness))
    else:
        results.append(LawResult("4", "A <= B implies monotone approximations", True,
                                 note="premise A <= B does not hold; vacuously true"))

    results.append(_inclusion_law("5", "lower(A) | lower(B) <= lower(A | B)", la | lb, lower(space, a | b)))
    results.append(_inclusion_law("6", "upper(A & B) <= upper(A) & upper(B)", upper(space, a & b), ua & ub))
    return tuple(results)


@dataclass(frozen=True)
class ProductLawReport:
    """Product laws under a congruence, with the completeness caveat.

    The upper inclusion is a theorem for any congruence.  The lower
    inclusion (evaluated only when lower(A*B) is nonempty) is a theorem
    only under a complete congruence, which is why the report records
    whether the congruence is complete.
    """

    upper_inclusion: LawResult
    lower_inclusion: LawResult
    congruence_complete: bool


def check_congruence_product_laws(
    alg: FiniteAlgebra, p: Partition, a: Subset, b: Subset
) -> ProductLawReport:
    """Evaluate both product laws under a congruence partition.

    Raises PreconditionError (with the compatibility witness) when p is
    not a congruence of alg.
    """
    cong = _congruence_cached(alg, p)
    if not cong.holds:
        raise PreconditionError(
            f"partition is not a congruence (witness {cong.witness})", witness=cong.witness
        )
    complete = _complete_cached(alg, p).holds
    space = ApproximationSpace(partition=p, algebra=alg)
    ab = product_set(alg, a, b)

    up = _inclusion_law(
        "product-upper", "upper(A)*upper(B) <= upper(A*B)",
        product_set(alg, upper(space, a), upper(space, b)), upper(space, ab),
    )
    lab = lower(space, ab)
    if lab:
        low = _inclusion_law(
            "product-lower", "lower(A)*lower(B) <= lower(A*B)",
            product_set(alg, lower(space, a), lower(space, b)), lab,
        )
    else:
        low = LawResult("product-lower", "lower(A)*lower(B) <= lower(A*B)", None,
                        note="guard not met: lower(A*B) is empty")
    return ProductLawReport(upper_inclusion=up, lower_inclusion=low, congruence_complete=complete)
