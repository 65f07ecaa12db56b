"""Finite algebras: a carrier {0..n-1}, one binary operation, a zero constant.

Nothing here assumes any axiom; a ``FiniteAlgebra`` is a raw operation
table with a distinguished element.  Axiom systems are data: each label
(B, BH, BO, Z) names a conjunction of the seven axioms C1..C7, and
``check_axiom`` decides a single axiom exhaustively, collecting every
violating tuple as a witness.  Each axiom is defined once, in ``AxiomId``,
as the terms of its clause, from which ``_clause`` derives the rest.
"""

from collections.abc import Sequence
from enum import Enum
from itertools import permutations
from typing import NamedTuple

from .errors import ValidationError, check_types
from .sets import Subset


def _products(term, out: list) -> list:
    """Appends to out each product in term that it lacks, every one after its operands."""
    if type(term) is tuple:
        for operand in term:
            _products(operand, out)
        if term not in out:
            out.append(term)
    return out


def _variables(term) -> list[str]:
    return sorted(set().union(*map(_variables, term)) if type(term) is tuple else {term} - {"0"})


def _rename(term, renaming: dict):
    return tuple(_rename(o, renaming) for o in term) if type(term) is tuple else renaming.get(term, term)


def _render(term, outer=True) -> str:
    if type(term) is not tuple:
        return term
    text = "*".join(_render(operand, False) for operand in term)
    return text if outer else f"({text})"


def _nest(names, loops, products, nonzero, untested=()) -> list[str]:
    """Statements that open the loops in order and compute each product at the first level that names
    both its operands, then test that it is determined, unless it is one of untested.  names maps
    each term to the name of its value.  A loop is a variable, which ranges over the carrier, or a
    pair (statements, bound) from ``_filter``: the statements that open it and the names of the
    terms it binds.  A row that a deeper level reads is taken from the table once, at the level
    that names it."""
    level = dict.fromkeys(names, 0)
    for i, loop in enumerate(loops, 1):
        level |= dict.fromkeys(loop[1] if type(loop) is tuple else (loop,), i)
    computed = [term for term in products if term not in level]
    for term in computed:
        level[term] = max(level[term[0]], level[term[1]])
    rows = dict.fromkeys(term[0] for term in computed if level[term] > level[term[0]])
    out = [f"t{names[term]} = t[{names[term]}]" for term in rows if term in names]
    for loop in (None, *loops):
        if type(loop) is tuple:
            statements, bound = loop
            names.update(bound)
            out += statements + [f"t{name} = t[{name}]" for term, name in bound.items() if term in rows]
        elif loop is not None:
            names[loop] = loop
            out += [f"for {loop}, t{loop} in enumerate(t):" if loop in rows else f"for {loop} in rng:"]
            out += [f"if {loop} != zero:"] * (loop in nonzero)
        for term in computed:
            if term not in names and term[0] in names and term[1] in names:
                name = names[term] = f"a{len(names)}"
                row = f"t{names[term[0]]}" if term[0] in rows else f"t[{names[term[0]]}]"
                out += [f"{name} = {row}[{names[term[1]]}]"] + [f"if {name} >= 0:"] * (term not in untested)
                out += [f"t{name} = t[{name}]"] * (term in rows)
    return out


def _filter(term, value, known, nonzero, loops) -> None:
    """Appends to loops those that find the instances where the product term has the value named
    value.  The first runs over the cells (i, j) in held[value]: it binds a variable operand that
    known lacks to the cell's index, tests a known operand or a 0 against it, and makes a product
    operand a filter on that index, a deeper loop.  known maps each term named so far to its name."""
    k, tests, bound, deeper = len(loops) + 1, [], {term: value}, []
    cell = [f"i{k}", f"j{k}"]
    for at, operand in enumerate(term):
        if type(operand) is tuple:
            deeper.append((operand, cell[at]))
        elif operand in known:
            tests.append(f"if {cell[at]} == {known[operand]}:")
        else:
            cell[at] = known[operand] = bound[operand] = operand
            tests += [f"if {operand} != zero:"] * (operand in nonzero)
    known[term] = value
    loops.append(([f"for {cell[0]}, {cell[1]} in held[{value}]:"] + tests, bound))
    for operand, index in deeper:
        _filter(operand, index, known, nonzero, loops)


def _block(statements) -> list[str]:
    """Source lines of statements, where one that ends in ':' opens a block that holds the rest."""
    lines, depth = [], 1
    for statement in statements:
        lines.append("    " * depth + statement)
        depth += statement.endswith(":")
    return lines


def _clause(premises, conclusion, nonzero=""):
    """AxiomId's arity, formula, pin, violations, propagator, value filter, whether the propagator reads
    the value index and the source of the generated functions, for the clause whose premises,
    equations (a, b) for a = b, imply the equation conclusion.  An identity has no premise and its
    sides are products that each read every variable; otherwise each premise equates a product of
    two variables with 0, and the conclusion equates two variables.  A term is a variable "x", "y"
    or "z", the zero "0" or a pair (a, b) for a*b; the variables in nonzero range over the nonzero
    elements.  A one-variable clause, such as x*0 = x, must equate a product of two leaves with a
    leaf: it pins the product's cell to the leaf's value and gets only its violations.  The
    functions are generated as source, once at import: reading a term per instance costs 3-9x.  The
    propagator has one loop nest for each product, over the instances where it reads (p, q), but
    none for a product that a symmetry (a renaming of the variables that keeps nonzero and each
    equation, read either way round) maps onto an earlier one.  A product operand of a nest's
    product is a filter, whose value must be p or q: the nest finds its instances among the cells
    that the index lists for that value.  A premise's nests force no cell; the value filter runs
    them with the cell's product read as its premise's other side, whose value it excludes where the
    rest of the instance is violated.  The source tests nothing the derivation knows: the propagator
    is called only on a determined cell (p, q), with an index where it reads one, so it tests
    neither v = t[p][q] nor held, and no product that a premise equates with 0, as -1 is not 0."""
    sides = tuple(side for equation in (*premises, conclusion) for side in equation)
    variables, products, names, pin = _variables(sides), [], {"0": "zero"}, None
    for side in sides:
        _products(side, products)
    equations = [" = ".join(map(_render, equation)) for equation in (*premises, conclusion)]
    formula = " and ".join(equations[:-1]) + " imply " * bool(premises) + equations[-1]
    formula += f" for nonzero {', '.join(nonzero)}" if nonzero else ""
    untested = {side for equation in premises if "0" in equation for side in equation}  # == zero fails at -1

    def violated(names, skipped=None):  # the test that the premises but skipped hold, the conclusion fails
        tests = [f"{names[a]} == {names[b]}" for a, b in premises if (a, b) != skipped]
        return [f"if {' and '.join(tests + ['{} != {}'.format(*map(names.get, conclusion))])}:"]

    def function(signature, body, **bindings):  # it binds rng, the carrier's range, where body loops over it
        bindings = {"rng": "range(len(t))", **bindings} if any(s.endswith(" in rng:") for s in body) else bindings
        return [f"def {signature}:", f"    {', '.join(bindings)} = {', '.join(bindings.values())}"] + body
    source = function("violations(t, zero)", _block(
        _nest(names, variables, products, nonzero, untested) + violated(names) + [f"yield ({', '.join(variables)},)"]))
    if len(variables) == 1:  # it pins a cell for each x, which the search sets first: no product needs a nest
        product, leaf = sorted(conclusion, key=lambda side: type(side) is not tuple)
        if premises or nonzero or [type(side) for side in (product, *product, leaf)] != [tuple, str, str, str]:
            raise ValueError(f"a one-variable axiom equates a product of two leaves with a leaf, not {formula}")
        pin, products = (lambda x, zero: tuple(zero if side == "0" else x for side in (*product, leaf))), []
    propagate, value_filter, order = [], [], sorted(products, key=conclusion.__contains__)  # an identity's sides last

    def shape(renaming):  # the premises and the conclusion, each equation read either way round
        return [{frozenset(_rename(s, renaming) for s in e) for e in part} for part in (premises, [conclusion])]
    symmetries = [renaming for renaming in (dict(zip(variables, image)) for image in permutations(variables))
                  if shape(renaming) == shape({}) and {renaming[var] for var in nonzero} == set(nonzero)]
    nests = [product for i, product in enumerate(products)
             if not any(_rename(product, renaming) in products[:i] for renaming in symmetries)]
    held_test = "held is None or " * all(type(o) is not tuple for product in nests for o in product)  # none reads it
    for product in nests:
        names, guards, filters = {"0": "zero", product: "v"}, [], []
        for operand, cell in zip(product, "pq"):
            if type(operand) is tuple:
                filters.append((operand, cell))
            elif operand in names:
                guards.append(f"if {cell} == {names[operand]}:")
            else:
                names[operand] = cell
                guards += [f"if {cell} != zero:"] * (operand in nonzero)
        loops, known = [], dict(names)
        for term, cell in sorted(filters, key=lambda f: len(_variables(f[0]))):  # the smallest first
            _filter(term, cell, known, nonzero, loops)
        free = [var for var in variables if var not in known]
        body = guards + _nest(names, loops + free, order, nonzero, {*conclusion, *untested})
        if premises:
            propagate += _block(body + violated(names) + ["return True"])
            premise = next(equation for equation in premises if product in equation)
            names[product] = names[premise[premise[0] == product]]  # the premise's other side
            value_filter += _block(body + violated(names, premise) + [f"out |= 1 << {names[product]}"])
            continue
        settle = [(names[s], names[o], *map(names.get, s)) for s, o in (conclusion, conclusion[::-1]) if s != product]
        propagate += _block(body + violated(names) + [  # a branch for each side but v, which is set
            f"{el}if {s} < 0: t[{a}][{b}] = {o}; trail.append(({a}, {b})); {held_test}held[{o}].append(({a}, {b}))"
            for el, (s, o, a, b) in zip(("", "el"), settle)] + ["else: return True"])
    source += function("propagate(t, zero, p, q, trail, held)", propagate + ["    return False"],
                       v="t[p][q]") * bool(nests)
    source += function("excluded(t, zero, p, q)", value_filter + ["    return out"], out="0") * bool(premises)
    exec(compile(source := "\n".join(source), f"<{formula}>", "exec"), ns := {})
    return (len(variables), formula, pin, ns["violations"], ns.get("propagate"), ns.get("excluded"), not held_test,
            source)


class AxiomId(Enum):
    """The seven axiom schemas.  Each member's value is its clause's terms, ``(premises,
    conclusion[, nonzero])`` as ``_clause`` reads them, so ``AxiomId.C3.value`` is C3 and a member
    pickles by it; ``_clause`` derives the rest.  C4's premises x*y = 0 and y*x = 0 imply x = y;
    the others are identities, with no premise.  ``arity`` is the number of variables and
    ``formula`` the clause as text.  A one-variable axiom pins a cell for each x, ``pin(x, zero) =
    (row, column, value)``; ``pin`` is None for the others, which have a propagator instead.
    ``violations(t, zero)`` yields an axiom's violating instances over table rows ``t`` (-1 for an
    undetermined cell) in lexicographic order.  It skips an instance that reads an undetermined
    cell, so on a partial table it yields only those that every completion violates.  The private
    propagator ``_propagate(t, zero, p, q, trail, held)`` looks at the instances that read the cell
    (p, q), and is called only on a determined one.  ``held`` is the value index: ``held[v]`` lists
    the determined cells that hold v, in the order they were set, or it is None when no propagator
    of the search reads it; a clause that reads it (``_reads_held``: C3, C5) is called only with
    one.  Where one side of an identity's instance is determined and the other lacks only its
    outermost cell, every completion that satisfies the axiom has the determined side's value
    there: it assigns it, appends the cell to ``trail`` and, with an index, to its value's list.
    It returns whether one of those instances is violated with every cell determined.  C4's value
    filter ``_excluded(t, zero, p, q)`` is the mask of the values of the undetermined cell (p, q)
    that would make an instance that reads it violated with every cell determined: the zero, where
    p != q and q*p is the zero.  ``_source`` is the generated source of them all.
    """

    C1 = (), (("x", "x"), "0")
    C2 = (), (("x", "0"), "x")
    C3 = (), ((("x", "y"), "z"), ("x", ("z", ("0", "y"))))
    C4 = ((("x", "y"), "0"), (("y", "x"), "0")), ("x", "y")
    C5 = (), (("x", ("y", "z")), (("x", "y"), ("0", "z")))
    C6 = (), (("x", "x"), "x")
    C7 = (), (("x", "y"), ("y", "x")), "xy"

    def __init__(self, premises, conclusion, nonzero=""):
        (self.arity, self.formula, self.pin, self.violations, self._propagate, self._excluded, self._reads_held,
         self._source) = _clause(premises, conclusion, nonzero)

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
        check_types(Sequence, table=table)
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


class AxiomReport(NamedTuple):
    """Verdict for one axiom.  ``holds`` iff no violating tuple exists.

    ``witnesses`` lists violating tuples in lexicographic order; it may be
    truncated by a caller-supplied cap, but the verdict always reflects the
    full exhaustive check.  The fields are keys of ``roughalg check``'s JSON.
    """

    axiom: AxiomId
    holds: bool
    witnesses: tuple[tuple[int, ...], ...]


def collect_witnesses(violations, max_witnesses: int | None) -> tuple[bool, tuple]:
    """(no violation at all, the violations up to the cap).  The cap is None or an int >= 1,
    checked before the first violation is drawn."""
    if max_witnesses is not None and (type(max_witnesses) is not int or max_witnesses < 1):
        raise ValidationError(f"max_witnesses must be at least 1, got {max_witnesses!r}", "max_witnesses")
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
    check_types(FiniteAlgebra, alg=alg)
    if not isinstance(axiom, AxiomId):
        raise ValidationError(f"unknown axiom {axiom!r}")
    holds, witnesses = collect_witnesses(axiom.violations(alg.table, alg.zero), max_witnesses)
    return AxiomReport(axiom=axiom, holds=holds, witnesses=witnesses)


def classify(alg: FiniteAlgebra, z_variant: str = "literal") -> frozenset[str]:
    """Labels from {B, BH, BO, Z} whose full axiom conjunction holds.

    Labels are independent; an algebra may carry several.  ``z_variant``
    selects which axiom set backs the Z label (see Z_AXIOM_VARIANTS).
    """
    check_types(FiniteAlgebra, alg=alg)
    if z_variant not in Z_AXIOM_VARIANTS:
        raise ValidationError(f"unknown z_variant {z_variant!r}")
    axiom_sets = dict(LABEL_AXIOMS)
    axiom_sets["Z"] = Z_AXIOM_VARIANTS[z_variant]
    return frozenset(
        label for label, axioms in axiom_sets.items()
        if all(next(a.violations(alg.table, alg.zero), None) is None for a in axioms)
    )


class IdentityReport(NamedTuple):
    """Left, right and two-sided identity elements; the JSON keys of ``roughalg identities``."""

    left: Subset
    right: Subset
    two_sided: Subset


def find_identities(alg: FiniteAlgebra) -> IdentityReport:
    """Scan for identity elements.

    e is a right identity iff x*e = x for all x (column e is the identity
    map); left iff e*x = x for all x (row e); two-sided iff both.
    """
    check_types(FiniteAlgebra, alg=alg)
    n, t = alg.n, alg.table
    right = Subset._raw(n, sum(1 << e for e in range(n) if all(t[x][e] == x for x in range(n))))
    left = Subset._raw(n, sum(1 << e for e in range(n) if all(t[e][x] == x for x in range(n))))
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
    check_types(FiniteAlgebra, alg=alg)
    check_types(Subset, a=a, b=b)
    if a.n != alg.n or b.n != alg.n:
        raise ValidationError(f"subset carrier mismatch: algebra has n={alg.n}")
    return Subset._raw(alg.n, product_mask(alg, a.mask, b.mask))
