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


def _c3_propagate(t, zero, p, q, trail):
    """Settles the C3 instances that read the determined cell (p, q), with one loop for each
    product that can read it; the outermost cells of (x, y, z) are (x*y, z) and (x, z*(0*y))."""
    n, v, tz, tp, tq = len(t), t[p][q], t[zero], t[p], t[q]
    tv, c = t[v], tz[q]
    if c >= 0:  # x*y: x = p, y = q
        for z, row in enumerate(t):
            d = row[c]
            if d < 0:
                continue
            left, right = tv[z], tp[d]
            if left != right:
                if left < 0:
                    tv[z] = right
                    trail.append((v, z))
                elif right < 0:
                    tp[d] = left
                    trail.append((p, d))
                else:
                    return True
    for y in range(n):  # (x*y)*z: x*y = p, z = q, so the left side is v
        c = tz[y]
        d = tq[c] if c >= 0 else -1
        if d < 0:
            continue
        for x, row in enumerate(t):
            if row[y] == p:
                right = row[d]
                if right != v:
                    if right >= 0:
                        return True
                    row[d] = v
                    trail.append((x, d))
    for y in range(n):  # z*(0*y): z = p, 0*y = q
        if tz[y] != q:
            continue
        for x, row in enumerate(t):
            a = row[y]
            if a < 0:
                continue
            ta = t[a]
            left, right = ta[p], row[v]
            if left != right:
                if left < 0:
                    ta[p] = right
                    trail.append((a, p))
                elif right < 0:
                    row[v] = left
                    trail.append((x, v))
                else:
                    return True
    for y in range(n):  # x*(z*(0*y)): x = p, z*(0*y) = q, so the right side is v
        a, c = tp[y], tz[y]
        if a < 0 or c < 0:
            continue
        ta = t[a]
        for z, row in enumerate(t):
            if row[c] == q:
                left = ta[z]
                if left != v:
                    if left >= 0:
                        return True
                    ta[z] = v
                    trail.append((a, z))
    if p == zero:  # 0*y: y = q, 0*y = v
        for x, row in enumerate(t):
            a = row[q]
            if a < 0:
                continue
            ta = t[a]
            for z in range(n):
                d = t[z][v]
                if d < 0:
                    continue
                left, right = ta[z], row[d]
                if left != right:
                    if left < 0:
                        ta[z] = right
                        trail.append((a, z))
                    elif right < 0:
                        row[d] = left
                        trail.append((x, d))
                    else:
                        return True
    return False


def _c4(t, zero):
    rng = range(len(t))
    for x in rng:
        for y in rng:
            if x != y and t[x][y] == zero and t[y][x] == zero:
                yield (x, y)


def _c4_cell(t, zero, p, q, trail):
    """Whether a violated C4 instance reads the determined cell (p, q); C4 forces no cell."""
    return p != q and t[p][q] == zero and t[q][p] == zero


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


def _c5_propagate(t, zero, p, q, trail):
    """Settles the C5 instances that read the determined cell (p, q), as ``_c3_propagate``; the
    outermost cells of (x, y, z) are (x, y*z) and (x*y, 0*z)."""
    n, v, tz, tp, tq = len(t), t[p][q], t[zero], t[p], t[q]
    tv, d = t[v], tz[q]
    if d >= 0:  # y*z: y = p, z = q
        for x, row in enumerate(t):
            c = row[p]
            if c < 0:
                continue
            tc = t[c]
            left, right = row[v], tc[d]
            if left != right:
                if left < 0:
                    row[v] = right
                    trail.append((x, v))
                elif right < 0:
                    tc[d] = left
                    trail.append((c, d))
                else:
                    return True
    for y, row in enumerate(t):  # x*(y*z): x = p, y*z = q, so the left side is v
        c = tp[y]
        if c < 0 or q not in row:
            continue
        tc = t[c]
        for z in range(n):
            d = tz[z]
            if row[z] == q and d >= 0:
                right = tc[d]
                if right != v:
                    if right >= 0:
                        return True
                    tc[d] = v
                    trail.append((c, d))
    for z in range(n):  # x*y: x = p, y = q
        a, d = tq[z], tz[z]
        if a < 0 or d < 0:
            continue
        left, right = tp[a], tv[d]
        if left != right:
            if left < 0:
                tp[a] = right
                trail.append((p, a))
            elif right < 0:
                tv[d] = left
                trail.append((v, d))
            else:
                return True
    for z in range(n):  # (x*y)*(0*z): x*y = p, 0*z = q, so the right side is v
        if tz[z] != q:
            continue
        for y, ty in enumerate(t):
            a = ty[z]
            if a < 0:
                continue
            for x, row in enumerate(t):
                if row[y] != p:
                    continue
                left = row[a]
                if left != v:
                    if left >= 0:
                        return True
                    row[a] = v
                    trail.append((x, a))
    if p == zero:  # 0*z: z = q, 0*z = v
        for x, row in enumerate(t):
            for y, ty in enumerate(t):
                c, a = row[y], ty[q]
                if c < 0 or a < 0:
                    continue
                tc = t[c]
                left, right = row[a], tc[v]
                if left != right:
                    if left < 0:
                        row[a] = right
                        trail.append((x, a))
                    elif right < 0:
                        tc[v] = left
                        trail.append((c, v))
                    else:
                        return True
    return False


def _c7(t, zero):
    rng = range(len(t))
    for x in rng:
        for y in rng:
            a, b = t[x][y], t[y][x]
            if x != zero and y != zero and a >= 0 and b >= 0 and a != b:
                yield (x, y)


def _c7_propagate(t, zero, p, q, trail):
    """Settles the C7 instance (p, q), whose outermost cells are (p, q) and its mirror (q, p)."""
    if p == zero or q == zero:
        return False
    v, right = t[p][q], t[q][p]
    if right < 0:
        t[q][p] = v
        trail.append((q, p))
    return right != v and right >= 0


class AxiomId(Enum):
    """The seven axiom schemas: variable arity, display formula and definition.

    A one-variable axiom is defined by the cell it pins for each x, ``pin(x, zero) = (row,
    column, value)``, the others by a generator.  ``violations(t, zero)`` yields an axiom's
    violating instances over table rows ``t`` (-1 for an undetermined cell) in lexicographic
    order.  It skips an instance that reads an undetermined cell, so on a partial table it
    yields only those that every completion violates.  The private propagator ``_propagate(t,
    zero, p, q, trail)`` of a many-variable axiom looks at the instances that read the
    determined cell (p, q), as the model search does after it sets the cell.  Where one side of
    an instance is determined and the other lacks only its outermost cell, every completion that
    satisfies the axiom has the determined side's value there: it assigns it and appends the
    cell to ``trail``.  It returns whether one of those instances is violated with every cell
    determined.  C3's and C5's propagators have one loop for each product that can read the
    cell, and each loop settles the instances it finds in place.
    """

    C1 = (1, "x*x = 0", lambda x, zero: (x, x, zero))
    C2 = (1, "x*0 = x", lambda x, zero: (x, zero, x))
    C3 = (3, "(x*y)*z = x*(z*(0*y))", _c3, _c3_propagate)
    C4 = (2, "x*y = 0 and y*x = 0 imply x = y", _c4, _c4_cell)
    C5 = (3, "x*(y*z) = (x*y)*(0*z)", _c5, _c5_propagate)
    C6 = (1, "x*x = x", lambda x, zero: (x, x, x))
    C7 = (2, "x*y = y*x for nonzero x, y", _c7, _c7_propagate)

    def __init__(self, arity: int, formula: str, definition, propagate=None):
        self.arity, self.formula = arity, formula
        self.pin = definition if arity == 1 else None
        self.violations = _pinned(definition) if arity == 1 else definition
        self._propagate = propagate

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

    @classmethod
    def _trusted(cls, rows) -> "FiniteAlgebra":
        # fast path: the rows of a closed table with zero 0, as the model search makes; skips validation
        obj = object.__new__(cls)
        obj.n, obj.table, obj.zero = len(rows), tuple(map(tuple, rows)), 0
        return obj

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
