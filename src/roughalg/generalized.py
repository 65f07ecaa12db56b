"""Approximations and morphism checks of set-valued maps.

A ``SetValuedMap`` (a relation between two carriers, see ``relations``)
assigns every source element a subset of the target carrier.  It induces
the lower approximation {x : F(x) <= A} and the upper approximation
{x : F(x) meets A} of target subsets back in the source.  One mask kernel
computes both, for every map; a ``Partition`` is its class map x -> [x],
so ``lower`` and ``upper`` are also Pawlak's approximations.  When both
carriers carry an operation the map can be tested for the (strong)
morphism property: the image of a product must contain (equal, for
strong) the product of the images, as ``relations._mismatch`` decides.
"""

from typing import Sequence

from .algebra import FiniteAlgebra
from .errors import ValidationError, check_types
from .relations import CheckResult, SetValuedMap, _grouped, _mismatch
from .sets import Subset


def _check_target_subset(f: SetValuedMap, a: Subset) -> None:
    check_types(SetValuedMap, f=f)
    check_types(Subset, a=a)
    if a.n != f.n_target:
        raise ValidationError(f"subset carrier {a.n} does not match target carrier {f.n_target}")


def _upper_mask(images: Sequence[int], m: int) -> int:
    """The approximation kernel: the source mask of the x whose image mask
    images[x] meets m.  Every upper and lower approximation is computed here."""
    out = 0
    for x, img in enumerate(images):
        if img & m:
            out |= 1 << x
    return out


def _lower_mask(images: Sequence[int], m: int, full_target: int) -> int:
    """The x whose image sits inside m: those outside the upper approximation
    of the complement, which holds for empty images too."""
    return ((1 << len(images)) - 1) ^ _upper_mask(images, full_target ^ m)


def lower(f: SetValuedMap, a: Subset) -> Subset:
    """Source elements whose image sits inside a (vacuously so when empty)."""
    _check_target_subset(f, a)
    return Subset._raw(f.n_source, _lower_mask(f.masks, a.mask, (1 << f.n_target) - 1))


def upper(f: SetValuedMap, a: Subset) -> Subset:
    """Source elements whose image meets a; empty images never qualify."""
    _check_target_subset(f, a)
    return Subset._raw(f.n_source, _upper_mask(f.masks, a.mask))


def _morphism(f: SetValuedMap, source: FiniteAlgebra, target: FiniteAlgebra | None,
              strong: bool) -> tuple | None:
    """``_mismatch`` of f from source to target (source when None), once the carriers match."""
    check_types(SetValuedMap, f=f)
    check_types(FiniteAlgebra, source=source, target=source if target is None else target)
    for side, alg, n in (("source", source, f.n_source), ("target", target or source, f.n_target)):
        if alg.n != n:
            raise ValidationError(f"{side} algebra carrier {alg.n} vs map {side} {n}")
    return _mismatch(source.table, f, _grouped(f), (target or source).table, strong)


def is_sv_morphism(
    f: SetValuedMap, source: FiniteAlgebra, target: FiniteAlgebra | None = None
) -> CheckResult:
    """Check F(x)*F(y) <= F(x*y) for all pairs; products taken in the target.

    The witness is (x, y, element) with the element in F(x)*F(y) but not
    F(x*y).  On a partition's class map this is the congruence test.
    """
    w = _morphism(f, source, target, strong=False)
    return CheckResult(w is None, w and (w[0], w[1], w[3]))


def is_strong_sv_morphism(
    f: SetValuedMap, source: FiniteAlgebra, target: FiniteAlgebra | None = None
) -> CheckResult:
    """Check F(x)*F(y) = F(x*y) for all pairs (set equality).

    The witness is (direction, x, y, element): direction "extra" when the
    element lies in F(x)*F(y) but not F(x*y), "missing" the converse.
    """
    w = _morphism(f, source, target, strong=True)
    return CheckResult(w is None, w and (w[2], w[0], w[1], w[3]))
