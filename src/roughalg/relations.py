"""Equivalence relations, partitions, congruence tests, ideal-induced relations.

A ``Partition`` and a square ``RelationPairs`` are two views of the same
thing; ``to_partition`` and ``Partition.to_pairs`` convert between them.
Every check returns the lexicographically first violating tuple so that
repeated runs are bit-identical.
"""

from dataclasses import dataclass
from typing import Iterable

from .algebra import FiniteAlgebra, image_product_mismatch
from .errors import PreconditionError, ValidationError
from .sets import Subset


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an exhaustive check: holds, or the first violating tuple."""

    holds: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.holds


class RelationPairs:
    """A relation as an explicit set of ordered pairs.

    Square by default; ``n_cols`` may differ for relations between two
    carriers (e.g. the graph of a set-valued map).
    """

    __slots__ = ("n_rows", "n_cols", "pairs")

    def __init__(self, n_rows: int, pairs: Iterable[tuple[int, int]] = (), n_cols: int | None = None):
        n_cols = n_rows if n_cols is None else n_cols
        if n_rows < 0 or n_cols < 0:
            raise ValidationError("carrier sizes must be non-negative")
        frozen = frozenset((int(x), int(y)) for x, y in pairs)
        for x, y in frozen:
            if not (0 <= x < n_rows and 0 <= y < n_cols):
                raise ValidationError(f"pair ({x}, {y}) outside {n_rows}x{n_cols} domain")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.pairs = frozen

    @property
    def n(self) -> int:
        if self.n_rows != self.n_cols:
            raise ValidationError("relation is not square")
        return self.n_rows

    @classmethod
    def identity(cls, n: int) -> "RelationPairs":
        return cls(n, ((x, x) for x in range(n)))

    @classmethod
    def full(cls, n: int) -> "RelationPairs":
        return cls(n, ((x, y) for x in range(n) for y in range(n)))

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RelationPairs)
            and (self.n_rows, self.n_cols, self.pairs) == (other.n_rows, other.n_cols, other.pairs)
        )

    def __hash__(self) -> int:
        return hash((self.n_rows, self.n_cols, self.pairs))

    def __repr__(self) -> str:
        return f"RelationPairs({self.n_rows}x{self.n_cols}, {sorted(self.pairs)})"


class Partition:
    """Pairwise-disjoint nonempty classes covering {0..n-1} exactly once.

    Classes are stored sorted by their least element, which fixes class
    ids and makes equal partitions compare equal.
    """

    __slots__ = ("n", "classes", "class_index")

    def __init__(self, n: int, classes: Iterable):
        if n < 1:
            raise ValidationError(f"carrier size must be at least 1, got {n}")
        normalized = []
        for c in classes:
            c = c if isinstance(c, Subset) else Subset.from_elements(n, c)
            if c.n != n:
                raise ValidationError(f"class carrier {c.n} does not match partition carrier {n}")
            if not c:
                raise ValidationError("empty class is not allowed")
            normalized.append(c)
        seen = Subset.empty(n)
        for c in normalized:
            if (seen & c).mask != 0:
                dup = next(iter(seen & c))
                raise ValidationError(f"element {dup} appears in two classes")
            seen = seen | c
        if seen != Subset.universe(n):
            missing = next(iter(seen.complement()))
            raise ValidationError(f"element {missing} is not covered by any class")
        normalized.sort(key=lambda c: next(iter(c)))
        index = [0] * n
        for ci, c in enumerate(normalized):
            for x in c:
                index[x] = ci
        self.n = n
        self.classes = tuple(normalized)
        self.class_index = tuple(index)

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        return cls(n, ([x] for x in range(n)))

    @classmethod
    def single(cls, n: int) -> "Partition":
        """One class containing the whole carrier."""
        return cls(n, [range(n)])

    def class_of(self, x: int) -> Subset:
        return self.classes[self.class_index[x]]

    def to_pairs(self) -> RelationPairs:
        return RelationPairs(
            self.n,
            ((x, y) for x in range(self.n) for y in range(self.n)
             if self.class_index[x] == self.class_index[y]),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.n == other.n and self.classes == other.classes

    def __hash__(self) -> int:
        return hash((self.n, self.classes))

    def __repr__(self) -> str:
        body = " | ".join(",".join(map(str, c)) for c in self.classes)
        return f"Partition({self.n}, {body})"


@dataclass(frozen=True)
class EquivalenceReport:
    """Which equivalence properties hold, with the first witness per failure.

    ``reflexivity`` is a 1-tuple (x,), ``symmetry`` a pair (x, y) present
    without its mirror, ``transitivity`` a triple (x, y, z) with (x,y) and
    (y,z) present but (x,z) absent.  None means the property holds.
    """

    holds: bool
    reflexivity: tuple | None
    symmetry: tuple | None
    transitivity: tuple | None


def is_equivalence(rel: RelationPairs) -> EquivalenceReport:
    n = rel.n
    pairs = rel.pairs
    refl = next(((x,) for x in range(n) if (x, x) not in pairs), None)
    sym = next(((x, y) for x, y in sorted(pairs) if (y, x) not in pairs), None)
    trans = None
    for x, y in sorted(pairs):
        for z in range(n):
            if (y, z) in pairs and (x, z) not in pairs:
                trans = (x, y, z)
                break
        if trans:
            break
    return EquivalenceReport(
        holds=refl is None and sym is None and trans is None,
        reflexivity=refl,
        symmetry=sym,
        transitivity=trans,
    )


def to_partition(rel: RelationPairs) -> Partition:
    """Classes of an equivalence relation.

    Raises PreconditionError (carrying the EquivalenceReport) when the
    relation is not an equivalence.
    """
    report = is_equivalence(rel)
    if not report.holds:
        raise PreconditionError(f"relation is not an equivalence: {report}", witness=report)
    n = rel.n
    seen = set()
    classes = []
    for x in range(n):
        if x in seen:
            continue
        cls = [y for y in range(n) if (x, y) in rel.pairs]
        seen.update(cls)
        classes.append(cls)
    return Partition(n, classes)


def is_congruence(alg: FiniteAlgebra, p: Partition) -> CheckResult:
    """Two-sided compatibility of a partition with the operation.

    x ~ y must force x*z ~ y*z and z*x ~ z*y for every z.  The witness is
    (x, y, z, side) with side "right" or "left".
    """
    if p.n != alg.n:
        raise ValidationError(f"partition carrier {p.n} does not match algebra carrier {alg.n}")
    idx, t = p.class_index, alg.table
    n = alg.n
    for x in range(n):
        for y in range(n):
            if idx[x] != idx[y]:
                continue
            for z in range(n):
                if idx[t[x][z]] != idx[t[y][z]]:
                    return CheckResult(False, (x, y, z, "right"))
                if idx[t[z][x]] != idx[t[z][y]]:
                    return CheckResult(False, (x, y, z, "left"))
    return CheckResult(True)


def require_congruence(alg: FiniteAlgebra, p: Partition) -> None:
    """Raise PreconditionError (with the is_congruence witness) unless p is a congruence."""
    cong = is_congruence(alg, p)
    if not cong.holds:
        raise PreconditionError(
            f"partition is not a congruence (witness {cong.witness})", witness=cong.witness
        )


def is_complete_congruence(alg: FiniteAlgebra, p: Partition) -> CheckResult:
    """Class products must equal the class of the product: [x]*[y] = [x*y],
    i.e. the class map x -> [x] is a strong set-valued morphism.

    Precondition: p is a congruence (PreconditionError otherwise).  The
    witness is (x, y, direction, element) where direction "extra" means
    the element lies in [x]*[y] but not [x*y], "missing" the converse.
    """
    require_congruence(alg, p)
    return _completeness(alg, p)


def _completeness(alg: FiniteAlgebra, p: Partition) -> CheckResult:
    """is_complete_congruence for a p already known to be a congruence of alg."""
    w = image_product_mismatch(alg, alg, [p.classes[i].mask for i in p.class_index], strong=True)
    return CheckResult(w is None, w)


def class_product_inclusion(alg: FiniteAlgebra, p: Partition) -> CheckResult:
    """Check [x]*[y] subset-of [x*y] for all pairs, i.e. that the class map
    is a set-valued morphism; the witness is (x, y, least element of [x]*[y]
    outside [x*y]).

    Deliberately independent of is_congruence so the two can be
    cross-checked against each other.
    """
    if p.n != alg.n:
        raise ValidationError(f"partition carrier {p.n} does not match algebra carrier {alg.n}")
    w = image_product_mismatch(alg, alg, [p.classes[i].mask for i in p.class_index], strong=False)
    return CheckResult(w is None, w and (w[0], w[1], w[3]))


def relation_from_ideal(alg: FiniteAlgebra, ideal: Subset) -> RelationPairs:
    """Pairs (x, y) with both x*y and y*x inside the given subset.

    Symmetric by construction.  No equivalence guarantee: transitivity can
    fail even for genuine ideals, so callers must run is_equivalence before
    treating the result as a partition.
    """
    if ideal.n != alg.n:
        raise ValidationError(f"subset carrier {ideal.n} does not match algebra carrier {alg.n}")
    t = alg.table
    n = alg.n
    return RelationPairs(
        n,
        ((x, y) for x in range(n) for y in range(n) if t[x][y] in ideal and t[y][x] in ideal),
    )
