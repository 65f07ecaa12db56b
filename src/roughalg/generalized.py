"""Generalized approximation via set-valued maps between two carriers.

A ``SetValuedMap`` assigns every source element a subset of the target
carrier.  It induces lower/upper approximations of target subsets back in
the source, and when both carriers carry an operation it can be tested
for the (strong) morphism property: the image of a product must contain
(equal, for strong) the product of the images.
"""

from dataclasses import dataclass
from typing import Iterable

from .algebra import FiniteAlgebra, classify, image_product_mismatch
from .errors import ValidationError
from .relations import Partition, RelationPairs
from .sets import Subset


class SetValuedMap:
    """Total map from {0..n_source-1} to subsets of {0..n_target-1}.

    Empty images are allowed by default; F-lower of any set then contains
    the empty-image elements vacuously.  Pass require_nonempty=True to
    reject empty images at construction.
    """

    __slots__ = ("n_source", "n_target", "images")

    def __init__(self, n_source: int, n_target: int, images: Iterable, require_nonempty: bool = False):
        if n_source < 1 or n_target < 1:
            raise ValidationError("carrier sizes must be at least 1")
        normalized = []
        for x, img in enumerate(images):
            img = img if isinstance(img, Subset) else Subset.from_elements(n_target, img)
            if img.n != n_target:
                raise ValidationError(f"image of {x} lives in carrier {img.n}, expected {n_target}")
            if require_nonempty and not img:
                raise ValidationError(f"image of {x} is empty")
            normalized.append(img)
        if len(normalized) != n_source:
            raise ValidationError(f"expected {n_source} images, got {len(normalized)}")
        self.n_source = n_source
        self.n_target = n_target
        self.images = tuple(normalized)

    @classmethod
    def from_partition(cls, p: Partition) -> "SetValuedMap":
        """x maps to its own class; reduces both approximations to the classic ones."""
        return cls(p.n, p.n, (p.class_of(x) for x in range(p.n)))

    def image(self, x: int) -> Subset:
        return self.images[x]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetValuedMap)
            and (self.n_source, self.n_target, self.images)
            == (other.n_source, other.n_target, other.images)
        )

    def __hash__(self) -> int:
        return hash((self.n_source, self.n_target, self.images))

    def __repr__(self) -> str:
        body = "; ".join(f"{x}:{','.join(map(str, img))}" for x, img in enumerate(self.images))
        return f"SetValuedMap({self.n_source}->{self.n_target}, {body})"


def _check_target_subset(f: SetValuedMap, a: Subset) -> None:
    if a.n != f.n_target:
        raise ValidationError(f"subset carrier {a.n} does not match target carrier {f.n_target}")


def gen_lower(f: SetValuedMap, a: Subset) -> Subset:
    """Source elements whose image sits inside a (vacuously so when empty)."""
    _check_target_subset(f, a)
    return Subset.from_elements(
        f.n_source, (x for x in range(f.n_source) if f.images[x].mask & ~a.mask == 0)
    )


def gen_upper(f: SetValuedMap, a: Subset) -> Subset:
    """Source elements whose image meets a; empty images never qualify."""
    _check_target_subset(f, a)
    return Subset.from_elements(
        f.n_source, (x for x in range(f.n_source) if f.images[x].mask & a.mask)
    )


def induced_relation(f: SetValuedMap) -> RelationPairs:
    """The graph of f as a pair set over source x target."""
    return RelationPairs(
        f.n_source,
        ((x, y) for x in range(f.n_source) for y in f.images[x]),
        n_cols=f.n_target,
    )


@dataclass(frozen=True)
class MorphismReport:
    """Morphism verdict plus the axiom labels both algebras happen to carry.

    For the plain check the witness is (x, y, element) with the element in
    F(x)*F(y) but not F(x*y).  For the strong check a fourth leading field
    names the failing direction: "extra" (product exceeds the image) or
    "missing" (image exceeds the product).
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
    w = image_product_mismatch(source, target, [s.mask for s in f.images], strong)
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
