"""Finite algebras: a carrier {0..n-1}, one binary operation, a zero constant.

Nothing here assumes any axiom; a ``FiniteAlgebra`` is a raw operation
table with a distinguished element.  Axiom systems are data: each label
(B, BH, BO, Z) names a conjunction of the seven axioms C1..C7, and
``check_axiom`` decides a single axiom exhaustively, collecting every
violating tuple as a witness.  Each axiom is defined once, in ``AxiomId``,
a one-variable one by the cell it pins.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import ValidationError
from .sets import Subset


def _pinned(pin):
    """The violations of a one-variable axiom from the cell it pins: x violates it where the cell
    (row, column) of ``pin(x, zero) = (row, column, value)`` is determined and is not value."""
    def violations(t, zero):
        for x in range(len(t)):
            row, column, value = pin(x, zero)
            if t[row][column] >= 0 and t[row][column] != value:
                yield (x,)
    return violations


def _c3(t, zero):
    rng = range(len(t))
    tz = t[zero]
    for x in rng:
        tx = t[x]
        for y in rng:
            a = tx[y]
            c = tz[y]
            if a < 0 or c < 0:
                continue
            ta = t[a]
            for z in rng:
                left = ta[z]
                if left < 0:
                    continue
                d = t[z][c]
                if d < 0:
                    continue
                right = tx[d]
                if right >= 0 and left != right:
                    yield (x, y, z)


def _c4(t, zero):
    rng = range(len(t))
    for x in rng:
        for y in rng:
            if x != y and t[x][y] == zero and t[y][x] == zero:
                yield (x, y)


def _c5(t, zero):
    rng = range(len(t))
    tz = t[zero]
    for x in rng:
        tx = t[x]
        for y in rng:
            c = tx[y]
            ty = t[y]
            for z in rng:
                a = ty[z]
                if a < 0:
                    continue
                left = tx[a]
                if left < 0 or c < 0:
                    continue
                d = tz[z]
                if d < 0:
                    continue
                right = t[c][d]
                if right >= 0 and left != right:
                    yield (x, y, z)


def _c7(t, zero):
    rng = range(len(t))
    for x in rng:
        for y in rng:
            a, b = t[x][y], t[y][x]
            if x != zero and y != zero and a >= 0 and b >= 0 and a != b:
                yield (x, y)


class AxiomId(Enum):
    """The seven axiom schemas: variable arity, display formula and definition.

    A one-variable axiom is defined by the cell it pins for each x, ``pin(x, zero) = (row,
    column, value)``, the others by a generator.  ``violations(t, zero)`` yields an axiom's
    violating instances over table rows ``t`` (-1 for an undetermined cell) in lexicographic
    order.  It skips an instance that reads an undetermined cell, so on a partial table it
    yields only those that every completion violates; the model search prunes on exactly that.
    """

    C1 = (1, "x*x = 0", lambda x, zero: (x, x, zero))
    C2 = (1, "x*0 = x", lambda x, zero: (x, zero, x))
    C3 = (3, "(x*y)*z = x*(z*(0*y))", _c3)
    C4 = (2, "x*y = 0 and y*x = 0 imply x = y", _c4)
    C5 = (3, "x*(y*z) = (x*y)*(0*z)", _c5)
    C6 = (1, "x*x = x", lambda x, zero: (x, x, x))
    C7 = (2, "x*y = y*x for nonzero x, y", _c7)

    def __init__(self, arity: int, formula: str, definition):
        self.arity, self.formula = arity, formula
        self.pin = definition if arity == 1 else None
        self.violations = _pinned(definition) if arity == 1 else definition

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


class FiniteAlgebra:
    """Operation table over {0..n-1} with a distinguished zero element.

    ``table[x][y]`` is the product x*y.  Construction validates closure
    (every entry an int inside the carrier, and the zero too) and nothing else.
    """

    __slots__ = ("n", "table", "zero")

    def __init__(self, n: int, table: Sequence[Sequence[int]], zero: int = 0):
        if type(n) is not int or n < 1:
            raise ValidationError(f"carrier size must be an int of at least 1, got {n!r}", "n")
        if len(table) != n:
            raise ValidationError(f"expected {n} rows, got {len(table)}")
        rows = []
        for x, row in enumerate(table):
            row = tuple(row)
            if len(row) != n:
                raise ValidationError(f"row {x} has {len(row)} entries, expected {n}")
            for y, v in enumerate(row):
                if type(v) is not int or not 0 <= v < n:
                    raise ValidationError(
                        f"closure violation at row {x}, column {y}: entry {v!r} "
                        f"is not an int in the carrier 0..{n - 1}", "table"
                    )
            rows.append(row)
        if type(zero) is not int or not 0 <= zero < n:
            raise ValidationError(f"zero element {zero!r} is not an int in the carrier 0..{n - 1}", "zero")
        self.n = n
        self.table = tuple(rows)
        self.zero = zero

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
    full exhaustive check.  The fields are keys of ``roughalg check``'s JSON.
    """

    axiom: AxiomId
    holds: bool
    witnesses: tuple[tuple[int, ...], ...]


def collect_witnesses(violations, max_witnesses: int | None) -> tuple[bool, tuple]:
    """(no violation at all, the violations up to the cap)."""
    out = []
    for w in violations:
        out.append(w)
        if max_witnesses is not None and len(out) >= max_witnesses:
            break
    return not out, tuple(out)


def check_axiom(alg: FiniteAlgebra, axiom: AxiomId, max_witnesses: int | None = None) -> AxiomReport:
    """Evaluate one axiom over every element tuple of the required arity.

    ``max_witnesses`` caps the reported list (must be >= 1 when given);
    the boolean verdict is always exhaustive.
    """
    if max_witnesses is not None and max_witnesses < 1:
        raise ValidationError(f"max_witnesses must be at least 1, got {max_witnesses}", "max_witnesses")
    if not isinstance(axiom, AxiomId):
        raise ValidationError(f"unknown axiom {axiom!r}")
    holds, witnesses = collect_witnesses(axiom.violations(alg.table, alg.zero), max_witnesses)
    return AxiomReport(axiom=axiom, holds=holds, witnesses=witnesses)


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
        if all(next(a.violations(alg.table, alg.zero), None) is None for a in axioms)
    )


@dataclass(frozen=True)
class IdentityReport:
    """Left, right and two-sided identity elements; the JSON keys of ``roughalg identities``."""

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


def _low(m: int) -> int:
    """The least element of a nonempty mask: the first one Subset iteration yields."""
    return (m & -m).bit_length() - 1


def product_set(alg: FiniteAlgebra, a: Subset, b: Subset) -> Subset:
    """Elementwise product {x*y | x in a, y in b}; empty if either side is."""
    if a.n != alg.n or b.n != alg.n:
        raise ValidationError(f"subset carrier mismatch: algebra has n={alg.n}")
    return Subset._raw(alg.n, product_mask(alg, a.mask, b.mask))
