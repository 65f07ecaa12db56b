"""Relations, partitions, congruence tests, ideal-induced relations.

A relation between two carriers is a ``SetValuedMap``: it assigns each source element x its
image R(x), a subset of the target carrier held as a mask, and relates x to exactly the
elements of R(x).  ``relation_from_ideal`` returns one, and a ``Partition`` is its class map
x -> [x], filled by one builder from its class index.  ``to_partition`` numbers an equivalence's
distinct images as classes.  ``generalized.lower`` and ``upper`` approximate along any map.
A map F between two tables is a (strong) set-valued morphism when F(x)*F(y) <= F(x*y) (=) for
all x, y; a congruence is complete when its class map is a strong one, [x]*[y] = [x*y].
``_mismatch`` decides both.  Congruence keeps two readers, ``_incompatible`` for one partition
of one table and ``_congruent`` for a hunt's carrier, bit-sliced once by ``_related``: listing a
table's congruences through ``_congruent`` measured 2.4-5.3x slower (bh4 0.030 -> 0.073 ms, bo5
0.061 -> 0.250, s3 0.225 -> 1.186), ``_related`` alone taking 0.063, 0.228 and 1.311 ms.  Every
check returns the lexicographically first violating tuple, so repeated runs are bit-identical.
"""

from collections.abc import Iterable
from typing import NamedTuple

from .algebra import FiniteAlgebra, _low
from .errors import PreconditionError, ValidationError, check_types
from .sets import Subset


class CheckResult(NamedTuple):
    """Outcome of an exhaustive check: holds, or the first violating tuple."""

    holds: bool
    witness: tuple | None = None


class SetValuedMap:
    """Total map from {0..n_source-1} to subsets of {0..n_target-1}, stored as ``masks``, the
    element mask of each image; ``image(x)`` and ``images`` build ``Subset``s from them.  Empty
    images are allowed; the lower approximation of any set then contains the empty-image
    elements vacuously."""

    __slots__ = ("n_source", "n_target", "masks")

    def __init__(self, n_source: int, n_target: int, images: Iterable):
        for name, n in (("n_source", n_source), ("n_target", n_target)):
            if type(n) is not int or n < 1:
                raise ValidationError(f"{name} must be an int of at least 1, got {n!r}", name)
        check_types(Iterable, images=images)
        masks = []
        for x, img in enumerate(images):
            img = img if isinstance(img, Subset) else Subset.from_elements(n_target, img, "images")
            if img.n != n_target:
                raise ValidationError(f"image of {x} lives in carrier {img.n}, expected {n_target}")
            masks.append(img.mask)
        if len(masks) != n_source:
            raise ValidationError(f"expected {n_source} images, got {len(masks)}")
        self.n_source = n_source
        self.n_target = n_target
        self.masks = tuple(masks)

    @classmethod
    def _from_masks(cls, n_source: int, n_target: int, masks: tuple[int, ...]) -> "SetValuedMap":
        # fast path: one mask inside the target carrier per source element; skips validation
        obj = object.__new__(cls)
        obj.n_source, obj.n_target, obj.masks = n_source, n_target, masks
        return obj

    def image(self, x: int) -> Subset:
        return Subset._raw(self.n_target, self.masks[x])

    @property
    def images(self) -> tuple[Subset, ...]:
        return tuple(map(self.image, range(self.n_source)))

    def __eq__(self, other) -> bool:
        # n_source is len(masks)
        return isinstance(other, SetValuedMap) and (self.n_target, self.masks) == (other.n_target, other.masks)

    def __hash__(self) -> int:
        return hash((self.n_source, self.n_target, self.masks))

    def __repr__(self) -> str:
        body = "; ".join(f"{x}:{','.join(map(str, img))}" for x, img in enumerate(self.images))
        return f"SetValuedMap({self.n_source}->{self.n_target}, {body})"


def _check_carrier(n) -> None:
    if type(n) is not int or n < 1:
        raise ValidationError(f"carrier size must be an int of at least 1, got {n!r}", "n")


class Partition(SetValuedMap):
    """Pairwise-disjoint nonempty classes covering {0..n-1} exactly once.

    A partition is its class map x -> [x]: ``image(x)`` is the class of x,
    and two partitions are equal when their class maps are.  Classes are
    stored sorted by their least element, which fixes class ids.
    """

    __slots__ = ("n", "classes", "class_index")

    def __init__(self, n: int, classes: Iterable):
        _check_carrier(n)
        check_types(Iterable, classes=classes)
        masks = []
        for c in classes:
            c = c if isinstance(c, Subset) else Subset.from_elements(n, c, "classes")
            if c.n != n:
                raise ValidationError(f"class carrier {c.n} does not match partition carrier {n}")
            if not c:
                raise ValidationError("empty class is not allowed")
            masks.append(c.mask)
        seen = 0
        for m in masks:
            if seen & m:
                raise ValidationError(f"element {_low(seen & m)} appears in two classes")
            seen |= m
        if seen != (1 << n) - 1:
            raise ValidationError(f"element {_low(~seen)} is not covered by any class")
        masks.sort(key=_low)
        self._fill(tuple(next(i for i, m in enumerate(masks) if m >> x & 1) for x in range(n)))

    def _fill(self, rgs: tuple[int, ...]) -> None:
        """Set every field from the class index rgs, classes numbered by least element."""
        n = len(rgs)
        masks = [0] * (max(rgs) + 1)
        for x, c in enumerate(rgs):
            masks[c] |= 1 << x
        self.n = self.n_source = self.n_target = n
        self.classes = tuple([Subset._raw(n, m) for m in masks])
        self.class_index = rgs
        self.masks = tuple(map(masks.__getitem__, rgs))

    @classmethod
    def _from_rgs(cls, rgs: tuple[int, ...]) -> "Partition":
        # fast path: a restricted-growth string is a valid class index; skips __init__ validation
        obj = object.__new__(cls)
        obj._fill(rgs)
        return obj

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        _check_carrier(n)
        return cls._from_rgs(tuple(range(n)))

    @classmethod
    def single(cls, n: int) -> "Partition":
        """One class containing the whole carrier."""
        _check_carrier(n)
        return cls._from_rgs((0,) * n)

    def __repr__(self) -> str:
        body = " | ".join(",".join(map(str, c)) for c in self.classes)
        return f"Partition({self.n}, {body})"


class EquivalenceReport(NamedTuple):
    """Which equivalence properties hold, with the first witness per failure.

    ``reflexivity`` is a 1-tuple (x,) with x outside R(x), ``symmetry`` a
    pair (x, y) with y in R(x) but x outside R(y), ``transitivity`` a
    triple (x, y, z) with y in R(x) and z in R(y) but z outside R(x).
    Pairs (x, y) are scanned in lexicographic order, z from the least.
    None means the property holds.
    """

    holds: bool
    reflexivity: tuple | None
    symmetry: tuple | None
    transitivity: tuple | None


def is_equivalence(rel: SetValuedMap) -> EquivalenceReport:
    check_types(SetValuedMap, rel=rel)
    if rel.n_source != rel.n_target:
        raise ValidationError("relation is not square")
    R = rel.masks
    related = [(x, y) for x, m in enumerate(R) for y in range(rel.n_target) if m >> y & 1]
    refl = next(((x,) for x in range(rel.n_source) if not R[x] >> x & 1), None)
    sym = next(((x, y) for x, y in related if not R[y] >> x & 1), None)
    trans = next(((x, y, _low(R[y] & ~R[x])) for x, y in related if R[y] & ~R[x]), None)
    return EquivalenceReport(
        holds=refl is None and sym is None and trans is None,
        reflexivity=refl,
        symmetry=sym,
        transitivity=trans,
    )


def to_partition(rel: SetValuedMap) -> Partition:
    """Classes of an equivalence relation: its distinct images.

    Raises PreconditionError (carrying the EquivalenceReport) when the
    relation is not an equivalence.
    """
    report = is_equivalence(rel)
    if not report.holds:
        raise PreconditionError(f"relation is not an equivalence: {report}", witness=report)
    ids: dict[int, int] = {}  # each x is the least element of its class when no smaller x has it
    return Partition._from_rgs(tuple(ids.setdefault(m, len(ids)) for m in rel.masks))


def is_congruence(alg: FiniteAlgebra, p: Partition) -> CheckResult:
    """Two-sided compatibility of a partition with the operation.

    x ~ y must force x*z ~ y*z and z*x ~ z*y for every z.  The witness is
    (x, y, z, side) with side "right" or "left".
    """
    check_types(FiniteAlgebra, alg=alg)
    check_types(Partition, p=p)
    if p.n != alg.n:
        raise ValidationError(f"partition carrier {p.n} does not match algebra carrier {alg.n}")
    w = _incompatible(alg.table, p.class_index)
    return CheckResult(w is None, w)


def _incompatible(table: tuple, idx: tuple) -> tuple | None:
    """is_congruence's first witness for the class index idx, or None.  The test is
    symmetric in x and y, so scanning y > x only finds the first witness of all pairs."""
    n = len(idx)
    for x in range(n):
        for y in range(x + 1, n):
            if idx[x] != idx[y]:
                continue
            tx, ty = table[x], table[y]
            for z in range(n):
                if idx[tx[z]] != idx[ty[z]]:
                    return (x, y, z, "right")
                if idx[table[z][x]] != idx[table[z][y]]:
                    return (x, y, z, "left")


def _related(partitions: list[Partition]) -> list[list[int]]:
    """For each x and y of the common carrier, the int with bit i set when x and y share a class
    of partitions[i]: their relations, bit-sliced, for testing all of them at once."""
    n = partitions[0].n
    return [[sum(1 << i for i, p in enumerate(partitions) if p.class_index[x] == p.class_index[y])
             for y in range(n)] for x in range(n)]


def _congruent(table, related: list[list[int]]) -> int:
    """The partitions of ``_related`` that are congruences of the operation table, as bits:
    x ~ y must force x*z ~ y*z and z*x ~ z*y.  related[0][0] holds every partition."""
    broken = 0
    for x, row in enumerate(related):
        for y in range(x + 1, len(row)):
            for z, (xz, yz) in enumerate(zip(table[x], table[y])):
                broken |= row[y] & ~(related[xz][yz] & related[table[z][x]][table[z][y]])
    return related[0][0] & ~broken


def _grouped(f: SetValuedMap) -> tuple[list[list[int]], list[int]] | None:
    """The distinct images of f as element lists and the position of each x's image among them;
    None for the identity map x -> {x}, under which L and U leave every set as it is."""
    at: dict[int, int] = {}
    index = [at.setdefault(m, len(at)) for m in f.masks]
    if len(at) == f.n_source and f.masks == tuple(map((1).__lshift__, range(f.n_source))):
        return None
    return [[y for y in range(f.n_target) if m >> y & 1] for m in at], index


def _mismatch(source: tuple, f: SetValuedMap, grouped, target=None, strong=True) -> tuple | None:
    """The first (x, y), in lexicographic order, where F(x)*F(y) in target (source when None) has an
    element outside F(x*y), x*y in source, or, when strong, lacks one: (x, y, "extra" or "missing",
    the least such element), or None.  Each pair of f's distinct images, ``grouped``, is multiplied once."""
    target = source if target is None else target
    if grouped is None and source == target:
        return None  # the identity map of one table is a strong endomorphism
    elements, index = grouped or ([[x] for x in range(f.n_source)], range(f.n_source))
    get, rows = f.masks.__getitem__, []  # rows[i][y]: the i-th distinct image times F(y)
    for left in elements:
        products = []
        for right in elements:
            m = 0
            for a in left:
                row = target[a]
                for b in right:
                    m |= 1 << row[b]
            products.append(m)
        rows.append([*map(products.__getitem__, index)])
    for x, row in enumerate(source):
        got, want = rows[index[x]], [*map(get, row)]
        if got != want:
            for y, (prod, img) in enumerate(zip(got, want)):
                if prod & ~img:
                    return x, y, "extra", _low(prod & ~img)
                if strong and img & ~prod:
                    return x, y, "missing", _low(img & ~prod)


def require_congruence(alg: FiniteAlgebra, p: Partition) -> None:
    """Raise PreconditionError (with the is_congruence witness) unless p is a congruence."""
    cong = is_congruence(alg, p)
    if not cong.holds:
        raise PreconditionError(
            f"partition is not a congruence (witness {cong.witness})", witness=cong.witness
        )


def is_complete_congruence(alg: FiniteAlgebra, p: Partition) -> CheckResult:
    """[x]*[y] = [x*y] for all x, y: the class map is a strong set-valued morphism, the witness
    (x, y, direction, element) that of ``_mismatch``.  PreconditionError unless p is a congruence."""
    require_congruence(alg, p)
    w = _mismatch(alg.table, p, _grouped(p))
    return CheckResult(w is None, w)


def relation_from_ideal(alg: FiniteAlgebra, ideal: Subset) -> SetValuedMap:
    """The relation x ~ y iff both x*y and y*x lie inside the given subset.

    Symmetric by construction.  No equivalence guarantee: transitivity can
    fail even for genuine ideals, so callers must run is_equivalence before
    treating the result as a partition.
    """
    check_types(FiniteAlgebra, alg=alg)
    check_types(Subset, ideal=ideal)
    if ideal.n != alg.n:
        raise ValidationError(f"subset carrier {ideal.n} does not match algebra carrier {alg.n}")
    t, n, m = alg.table, alg.n, ideal.mask
    return SetValuedMap._from_masks(n, n, tuple(
        sum(1 << y for y in range(n) if m >> t[x][y] & 1 and m >> t[y][x] & 1) for x in range(n)))
