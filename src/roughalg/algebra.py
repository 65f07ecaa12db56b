"""Finite algebras: a carrier {0..n-1}, one binary operation, a zero constant.

Nothing here assumes any axiom; a ``FiniteAlgebra`` is a raw operation
table with a distinguished element.  Axiom systems are data: each label
(B, BH, BO, Z) names a conjunction of the seven axioms C1..C7, and
``check_axiom`` decides a single axiom exhaustively, collecting every
violating tuple as a witness.
"""

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import ValidationError
from .sets import Subset


class AxiomId(Enum):
    """The seven axiom schemas, with variable arity and display formula."""

    C1 = (1, "x*x = 0")
    C2 = (1, "x*0 = x")
    C3 = (3, "(x*y)*z = x*(z*(0*y))")
    C4 = (2, "x*y = 0 and y*x = 0 imply x = y")
    C5 = (3, "x*(y*z) = (x*y)*(0*z)")
    C6 = (1, "x*x = x")
    C7 = (2, "x*y = y*x for nonzero x, y")

    def __init__(self, arity: int, formula: str):
        self.arity = arity
        self.formula = formula

    def __repr__(self) -> str:
        return f"AxiomId.{self.name}"


# Each classification label is a plain list of axioms, so alternative axiom
# sets can be swapped in without touching any code path.
LABEL_AXIOMS: dict[str, tuple[AxiomId, ...]] = {
    "B": (AxiomId.C1, AxiomId.C2, AxiomId.C3),
    "BH": (AxiomId.C1, AxiomId.C2, AxiomId.C4),
    "BO": (AxiomId.C1, AxiomId.C2, AxiomId.C5),
    "Z": (AxiomId.C1, AxiomId.C2, AxiomId.C6, AxiomId.C7),
}

# The "literal" Z axiom set above is unsatisfiable for carriers larger than
# one element (C1 and C6 both pin the diagonal).  The "relaxed" variant drops
# C1 and keeps the idempotent-commutative core; neither variant is treated as
# canonical anywhere.
Z_AXIOM_VARIANTS: dict[str, tuple[AxiomId, ...]] = {
    "literal": LABEL_AXIOMS["Z"],
    "relaxed": (AxiomId.C2, AxiomId.C6, AxiomId.C7),
}

LABELS = ("B", "BH", "BO", "Z")


class FiniteAlgebra:
    """Operation table over {0..n-1} with a distinguished zero element.

    ``table[x][y]`` is the product x*y.  Construction validates closure
    (every entry inside the carrier) and nothing else.
    """

    __slots__ = ("n", "table", "zero")

    def __init__(self, n: int, table: Sequence[Sequence[int]], zero: int = 0):
        if n < 1:
            raise ValidationError(f"carrier size must be at least 1, got {n}")
        if len(table) != n:
            raise ValidationError(f"expected {n} rows, got {len(table)}")
        rows = []
        for x, row in enumerate(table):
            row = tuple(row)
            if len(row) != n:
                raise ValidationError(f"row {x} has {len(row)} entries, expected {n}")
            for y, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < n:
                    raise ValidationError(
                        f"closure violation at row {x}, column {y}: entry {v} "
                        f"outside carrier 0..{n - 1}"
                    )
            rows.append(row)
        if not 0 <= zero < n:
            raise ValidationError(f"zero element {zero} outside carrier 0..{n - 1}")
        self.n = n
        self.table = tuple(rows)
        self.zero = zero

    def op(self, x: int, y: int) -> int:
        return self.table[x][y]

    def rows(self) -> list[list[int]]:
        """Mutable copy of the table, row-major."""
        return [list(r) for r in self.table]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteAlgebra)
            and self.n == other.n
            and self.table == other.table
            and self.zero == other.zero
        )

    def __hash__(self) -> int:
        return hash((self.n, self.table, self.zero))

    def __repr__(self) -> str:
        return f"FiniteAlgebra(n={self.n}, zero={self.zero}, table={[list(r) for r in self.table]})"


@dataclass(frozen=True)
class AxiomReport:
    """Verdict for one axiom.  ``holds`` iff no violating tuple exists.

    ``witnesses`` lists violating tuples in lexicographic order; it may be
    truncated by a caller-supplied cap, but the verdict always reflects the
    full exhaustive check.
    """

    axiom: AxiomId
    holds: bool
    witnesses: tuple[tuple[int, ...], ...]


def _violations(alg: FiniteAlgebra, axiom: AxiomId):
    n, t, z = alg.n, alg.table, alg.zero
    if axiom is AxiomId.C1:
        return ((x,) for x in range(n) if t[x][x] != z)
    if axiom is AxiomId.C2:
        return ((x,) for x in range(n) if t[x][z] != x)
    if axiom is AxiomId.C6:
        return ((x,) for x in range(n) if t[x][x] != x)
    if axiom is AxiomId.C4:
        return (
            (x, y)
            for x, y in itertools.product(range(n), repeat=2)
            if x != y and t[x][y] == z and t[y][x] == z
        )
    if axiom is AxiomId.C7:
        return (
            (x, y)
            for x, y in itertools.product(range(n), repeat=2)
            if x != z and y != z and t[x][y] != t[y][x]
        )
    if axiom is AxiomId.C3:
        return (
            (x, y, z3)
            for x, y, z3 in itertools.product(range(n), repeat=3)
            if t[t[x][y]][z3] != t[x][t[z3][t[z][y]]]
        )
    if axiom is AxiomId.C5:
        return (
            (x, y, z3)
            for x, y, z3 in itertools.product(range(n), repeat=3)
            if t[x][t[y][z3]] != t[t[x][y]][t[z][z3]]
        )
    raise ValidationError(f"unknown axiom {axiom!r}")


def check_axiom(alg: FiniteAlgebra, axiom: AxiomId, max_witnesses: int | None = None) -> AxiomReport:
    """Evaluate one axiom over every element tuple of the required arity.

    ``max_witnesses`` caps the reported list (must be >= 1 when given);
    the boolean verdict is always exhaustive.
    """
    if max_witnesses is not None and max_witnesses < 1:
        raise ValidationError("max_witnesses must be at least 1")
    holds = True
    witnesses = []
    for w in _violations(alg, axiom):
        holds = False
        witnesses.append(w)
        if max_witnesses is not None and len(witnesses) >= max_witnesses:
            break
    return AxiomReport(axiom=axiom, holds=holds, witnesses=tuple(witnesses))


def axiom_holds(alg: FiniteAlgebra, axiom: AxiomId) -> bool:
    """Verdict only, with early exit on the first violation."""
    return next(iter(_violations(alg, axiom)), None) is None


def classify(alg: FiniteAlgebra, z_variant: str = "literal") -> frozenset[str]:
    """Labels from {B, BH, BO, Z} whose full axiom conjunction holds.

    Labels are independent; an algebra may carry several.  ``z_variant``
    selects which axiom set backs the Z label (see Z_AXIOM_VARIANTS).
    """
    if z_variant not in Z_AXIOM_VARIANTS:
        raise ValidationError(f"unknown z_variant {z_variant!r}")
    axiom_sets = dict(LABEL_AXIOMS)
    axiom_sets["Z"] = Z_AXIOM_VARIANTS[z_variant]
    return frozenset(
        label for label, axioms in axiom_sets.items()
        if all(axiom_holds(alg, a) for a in axioms)
    )


@dataclass(frozen=True)
class IdentityReport:
    """Left, right and two-sided identity elements of an algebra."""

    left: Subset
    right: Subset
    two_sided: Subset


def find_identities(alg: FiniteAlgebra) -> IdentityReport:
    """Scan for identity elements.

    e is a right identity iff x*e = x for all x (column e is the identity
    map); left iff e*x = x for all x (row e); two-sided iff both.
    """
    n, t = alg.n, alg.table
    right = Subset.from_elements(n, (e for e in range(n) if all(t[x][e] == x for x in range(n))))
    left = Subset.from_elements(n, (e for e in range(n) if all(t[e][x] == x for x in range(n))))
    return IdentityReport(left=left, right=right, two_sided=left & right)


def product_mask(alg: FiniteAlgebra, a: int, b: int) -> int:
    """``product_set`` on bit masks of elements."""
    ys = [y for y in range(alg.n) if b >> y & 1]
    mask = 0
    for x, row in enumerate(alg.table):
        if a >> x & 1:
            for y in ys:
                mask |= 1 << row[y]
    return mask


def product_set(alg: FiniteAlgebra, a: Subset, b: Subset) -> Subset:
    """Elementwise product {x*y | x in a, y in b}; empty if either side is."""
    if a.n != alg.n or b.n != alg.n:
        raise ValidationError(f"subset carrier mismatch: algebra has n={alg.n}")
    return Subset._raw(alg.n, product_mask(alg, a.mask, b.mask))
