"""Approximations and morphism checks of set-valued maps.

A ``SetValuedMap`` (a relation between two carriers, see ``relations``)
assigns every source element a subset of the target carrier.  It induces
the lower approximation {x : F(x) <= A} and the upper approximation
{x : F(x) meets A} of target subsets back in the source.  One mask kernel
computes both, for every map; a ``Partition`` is its class map x -> [x],
so ``lower`` and ``upper`` are also Pawlak's approximations.  When both
carriers carry an operation the map can be tested for the (strong)
morphism property: the image of a product must contain (equal, for
strong) the product of the images.
"""

from dataclasses import dataclass
from typing import Sequence

from .algebra import FiniteAlgebra, classify, image_product_mismatch
from .errors import ValidationError
from .relations import SetValuedMap
from .sets import Subset


def _check_target_subset(f: SetValuedMap, a: Subset) -> None:
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


@dataclass(frozen=True)
class MorphismReport:
    """Morphism verdict plus the axiom labels both algebras happen to carry.

    For the plain check the witness is (x, y, element) with the element in
    F(x)*F(y) but not F(x*y).  For the strong check a fourth leading field
    names the failing direction: "extra" (product exceeds the image) or
    "missing" (image exceeds the product).  The fields are keys of
    ``roughalg morphism``'s JSON.
    """

    holds: bool
    witness: tuple | None
    source_labels: frozenset[str]
    target_labels: frozenset[str]


def _morphism(f: SetValuedMap, source: FiniteAlgebra, target: FiniteAlgebra | None,
              strong: bool) -> MorphismReport:
    target = source if target is None else target
    if source.n != f.n_source:
        raise ValidationError(f"source algebra carrier {source.n} vs map source {f.n_source}")
    if target.n != f.n_target:
        raise ValidationError(f"target algebra carrier {target.n} vs map target {f.n_target}")
    w = image_product_mismatch(source, target, f.masks, strong)
    if w is not None:
        x, y, direction, element = w
        w = (direction, x, y, element) if strong else (x, y, element)
    return MorphismReport(
        holds=w is None,
        witness=w,
        source_labels=classify(source),
        target_labels=classify(target),
    )


def is_sv_morphism(
    f: SetValuedMap, source: FiniteAlgebra, target: FiniteAlgebra | None = None
) -> MorphismReport:
    """Check F(x)*F(y) <= F(x*y) for all pairs; products taken in the target."""
    return _morphism(f, source, target, strong=False)


def is_strong_sv_morphism(
    f: SetValuedMap, source: FiniteAlgebra, target: FiniteAlgebra | None = None
) -> MorphismReport:
    """Check F(x)*F(y) = F(x*y) for all pairs (set equality)."""
    return _morphism(f, source, target, strong=True)
