"""Naive reference implementations used to cross-check the package.

Everything works on plain ints, sets and lists, straight from the
definitions, sharing no code or representation tricks with the package
(which uses bit masks).  Slow and obvious on purpose.
"""

import itertools


def axiom_violations(table, axiom, zero=0):
    """All violating tuples for one axiom, lexicographic order."""
    n = len(table)
    t = table
    out = []
    if axiom == "C1":
        out = [(x,) for x in range(n) if t[x][x] != zero]
    elif axiom == "C2":
        out = [(x,) for x in range(n) if t[x][zero] != x]
    elif axiom == "C3":
        for x, y, z in itertools.product(range(n), repeat=3):
            if t[t[x][y]][z] != t[x][t[z][t[zero][y]]]:
                out.append((x, y, z))
    elif axiom == "C4":
        for x, y in itertools.product(range(n), repeat=2):
            if x != y and t[x][y] == zero and t[y][x] == zero:
                out.append((x, y))
    elif axiom == "C5":
        for x, y, z in itertools.product(range(n), repeat=3):
            if t[x][t[y][z]] != t[t[x][y]][t[zero][z]]:
                out.append((x, y, z))
    elif axiom == "C6":
        out = [(x,) for x in range(n) if t[x][x] != x]
    elif axiom == "C7":
        for x, y in itertools.product(range(n), repeat=2):
            if x != zero and y != zero and t[x][y] != t[y][x]:
                out.append((x, y))
    else:
        raise ValueError(axiom)
    return out


def violates_axiom_at(table, axiom, witness, zero=0):
    """Re-evaluate an axiom at one tuple; True when the tuple violates it."""
    t = table
    if axiom == "C1":
        (x,) = witness
        return t[x][x] != zero
    if axiom == "C2":
        (x,) = witness
        return t[x][zero] != x
    if axiom == "C3":
        x, y, z = witness
        return t[t[x][y]][z] != t[x][t[z][t[zero][y]]]
    if axiom == "C4":
        x, y = witness
        return x != y and t[x][y] == zero and t[y][x] == zero
    if axiom == "C5":
        x, y, z = witness
        return t[x][t[y][z]] != t[t[x][y]][t[zero][z]]
    if axiom == "C6":
        (x,) = witness
        return t[x][x] != x
    if axiom == "C7":
        x, y = witness
        return x != zero and y != zero and t[x][y] != t[y][x]
    raise ValueError(axiom)


def identity_cells(table, axiom, witness, zero=0):
    """For the instance witness of C3, C5 or C7: the cells (row, column) it reads, and the outermost
    cell of each side.  None where witness is no instance (C7 with a zero), or where a cell below
    the outermost two is undetermined (-1), so that those two cannot be located."""
    t = table
    if axiom == "C3":  # (x*y)*z = x*(z*(0*y))
        x, y, z = witness
        xy, oy = t[x][y], t[zero][y]
        if xy < 0 or oy < 0 or t[z][oy] < 0:
            return None
        left, right = (xy, z), (x, t[z][oy])
        return {(x, y), (zero, y), (z, oy), left, right}, left, right
    if axiom == "C5":  # x*(y*z) = (x*y)*(0*z)
        x, y, z = witness
        yz, xy, oz = t[y][z], t[x][y], t[zero][z]
        if yz < 0 or xy < 0 or oz < 0:
            return None
        left, right = (x, yz), (xy, oz)
        return {(y, z), (x, y), (zero, z), left, right}, left, right
    if axiom == "C7":  # x*y = y*x for nonzero x, y
        x, y = witness
        if zero in (x, y):
            return None
        return {(x, y), (y, x)}, (x, y), (y, x)
    raise ValueError(axiom)


def is_group_division(table, abelian=False):
    """Whether table is x*y = x.y^-1 for a group (an abelian one if asked) with identity 0, where
    x.y = x*(0*y) and 0*y is the inverse of y: the tables of B-algebras, and of BO-algebras when
    abelian."""
    rng = range(len(table))
    t = table
    dot = [[t[x][t[0][y]] for y in rng] for x in rng]
    for x, y in itertools.product(rng, repeat=2):
        if not dot[x][0] == dot[0][x] == x or not dot[x][t[0][x]] == dot[t[0][x]][x] == 0:
            return False
        if t[x][y] != dot[x][t[0][y]] or abelian and dot[x][y] != dot[y][x]:
            return False
        if any(dot[dot[x][y]][z] != dot[x][dot[y][z]] for z in rng):
            return False
    return True


def _partial_checks(t, axioms, zero):
    """One test per named axiom: whether some instance of it whose cells are all determined is
    violated.  t has order n + 1, and its element u = n is absorbing (u*y = x*u = u): an
    undetermined cell holds u, and a side that reads one evaluates to u, so such an instance is
    skipped."""
    u = len(t) - 1
    rng = range(u)
    pairs = list(itertools.product(rng, repeat=2))
    triples = list(itertools.product(rng, repeat=3))
    tests = {
        "C1": lambda: any([t[x][x] not in (zero, u) for x in rng]),
        "C2": lambda: any([t[x][zero] not in (x, u) for x in rng]),
        "C3": lambda: any(u != t[t[x][y]][z] != t[x][t[z][t[zero][y]]] != u for x, y, z in triples),
        "C4": lambda: any([x != y and t[x][y] == t[y][x] == zero for x, y in pairs]),
        "C5": lambda: any(u != t[x][t[y][z]] != t[t[x][y]][t[zero][z]] != u for x, y, z in triples),
        "C6": lambda: any([t[x][x] not in (x, u) for x in rng]),
        "C7": lambda: any([zero not in (x, y) and u != t[x][y] != t[y][x] != u for x, y in pairs]),
    }
    return [tests[a] for a in axioms]


def search_models(n, axioms, zero=0):
    """Every table on {0..n-1} that satisfies the named axioms, lazily, in lexicographic order of
    the flattened table.  A depth-first search assigns every cell in row-major order, values
    ascending, and after each assignment re-checks every instance of every axiom."""
    t = [[n] * (n + 1) for _ in range(n + 1)]
    checks = _partial_checks(t, axioms, zero)
    cells = list(itertools.product(range(n), repeat=2))

    def extend(i):
        if i == len(cells):
            yield tuple(tuple(row[:n]) for row in t[:n])
            return
        x, y = cells[i]
        for v in range(n):
            t[x][y] = v
            for violated in checks:
                if violated():
                    break
            else:
                yield from extend(i + 1)
        t[x][y] = n

    return extend(0)


def set_product(table, a, b):
    return {table[x][y] for x in a for y in b}


def ideal_pair_violations(table, members):
    n = len(table)
    return [
        (x, y)
        for x, y in itertools.product(range(n), repeat=2)
        if table[x][y] in members and y in members and x not in members
    ]


def ideal_triple_violations(table, members):
    n = len(table)
    return [
        (x, y, z)
        for x, y, z in itertools.product(range(n), repeat=3)
        if table[table[x][y]][z] in members and y in members and table[x][z] not in members
    ]


def is_ideal(table, members, zero=0):
    return zero in members and not ideal_pair_violations(table, members)


def is_strong_ideal(table, members, zero=0):
    return zero in members and not ideal_triple_violations(table, members)


def class_of(classes, x):
    for c in classes:
        if x in c:
            return set(c)
    raise AssertionError(f"{x} not covered")


def naive_lower(classes, a):
    out = set()
    for c in classes:
        if set(c) <= set(a):
            out |= set(c)
    return out


def naive_upper(classes, a):
    out = set()
    for c in classes:
        if set(c) & set(a):
            out |= set(c)
    return out


def naive_gen_lower(images, a):
    """{x : F(x) <= a} for the images F(x) listed by source element."""
    return {x for x, img in enumerate(images) if set(img) <= set(a)}


def naive_gen_upper(images, a):
    """{x : F(x) meets a}."""
    return {x for x, img in enumerate(images) if set(img) & set(a)}


def is_congruence(table, classes):
    n = len(table)
    label = {}
    for i, c in enumerate(classes):
        for x in c:
            label[x] = i
    for x, y, z in itertools.product(range(n), repeat=3):
        if label[x] != label[y]:
            continue
        if label[table[x][z]] != label[table[y][z]]:
            return False
        if label[table[z][x]] != label[table[z][y]]:
            return False
    return True


def congruence_witness(table, classes):
    """First (x, y, z, side) with x ~ y but x*z, y*z ("right") or z*x, z*y ("left") in
    different classes, over every ordered pair (x, y) in lexicographic order and z from
    the least, the right side first; None for a congruence."""
    n = len(table)
    label = {x: i for i, c in enumerate(classes) for x in c}
    for x, y, z in itertools.product(range(n), repeat=3):
        if label[x] != label[y]:
            continue
        if label[table[x][z]] != label[table[y][z]]:
            return (x, y, z, "right")
        if label[table[z][x]] != label[table[z][y]]:
            return (x, y, z, "left")
    return None


def is_complete_congruence(table, classes):
    n = len(table)
    for x, y in itertools.product(range(n), repeat=2):
        cx, cy = class_of(classes, x), class_of(classes, y)
        if set_product(table, cx, cy) != class_of(classes, table[x][y]):
            return False
    return True


def all_partitions(n):
    """Every partition of {0..n-1}, as a set of frozensets of frozensets."""
    if n == 0:
        return {frozenset()}
    out = set()
    for labels in itertools.product(range(n), repeat=n):
        classes = frozenset(
            frozenset(i for i in range(n) if labels[i] == l) for l in set(labels)
        )
        out.add(classes)
    return out


def equivalence_properties(n, pairs):
    """(reflexive, symmetric, transitive) booleans for a pair set."""
    reflexive = all((x, x) in pairs for x in range(n))
    symmetric = all((y, x) in pairs for x, y in pairs)
    transitive = all(
        (x, z) in pairs
        for x, y in pairs
        for y2, z in pairs
        if y == y2
    )
    return reflexive, symmetric, transitive


def equivalence_witnesses(n, pairs):
    """(reflexivity, symmetry, transitivity) first witnesses of a pair set,
    None where the property holds: pairs scanned in sorted order, z upward."""
    refl = next(((x,) for x in range(n) if (x, x) not in pairs), None)
    sym = next(((x, y) for x, y in sorted(pairs) if (y, x) not in pairs), None)
    trans = next(((x, y, z) for x, y in sorted(pairs) for z in range(n)
                  if (y, z) in pairs and (x, z) not in pairs), None)
    return refl, sym, trans


def naive_law(suite, number, table, classes, a, b):
    """``naive_law_of`` for the approximations of a partition's classes and
    the set product of a table."""
    return naive_law_of(suite, number, len(table), lambda s: naive_lower(classes, s),
                        lambda s: naive_upper(classes, s), lambda x, y: set_product(table, x, y), a, b)


def naive_law_of(suite, number, n, lo, up, prod, a, b):
    """(holds, witness) of one suite law on the subsets a and b of {0..n-1}.

    Straight from the suite definitions, on Python sets, for any operators
    lo and up (lower and upper approximation) and prod (set product) given
    as functions of sets.  A witness names the least offending element;
    ``holds`` is None where the law does not speak (3-2 law 2 when
    lower(A*B) is empty), and monotonicity (3-1 law 4) holds vacuously
    when A is not inside B.
    """
    full = set(range(n))
    a, b = set(a), set(b)

    def inclusion(x, y):
        return (False, (min(x - y),)) if x - y else (True, None)

    def equality(x, y):
        if x - y:
            return False, ("left-minus-right", min(x - y))
        if y - x:
            return False, ("right-minus-left", min(y - x))
        return True, None

    def bounds():
        if lo(a) - a:
            return False, ("lower-outside-set", min(lo(a) - a))
        if a - up(a):
            return False, ("set-outside-upper", min(a - up(a)))
        return True, None

    def extremes():
        if lo(set()) or up(set()):
            return False, ("empty",)
        if lo(full) != full or up(full) != full:
            return False, ("universe",)
        return True, None

    def fixed(x, first, second):
        r = equality(first(x), x)
        return r if not r[0] else equality(second(x), x)

    def monotone():
        if not a <= b:
            return True, None
        if lo(a) - lo(b):
            return False, ("lower", min(lo(a) - lo(b)))
        if up(a) - up(b):
            return False, ("upper", min(up(a) - up(b)))
        return True, None

    laws = {
        ("2-1", "1"): bounds,
        ("2-1", "2"): extremes,
        ("2-1", "3"): lambda: inclusion(lo(a) | lo(b), lo(a | b)),
        ("2-1", "4"): lambda: equality(lo(a & b), lo(a) & lo(b)),
        ("2-1", "5"): lambda: equality(up(a | b), up(a) | up(b)),
        ("2-1", "6"): lambda: inclusion(up(a & b), up(a) & up(b)),
        ("2-1", "7"): lambda: equality(up(full - a), full - lo(a)),
        ("2-1", "8"): lambda: equality(lo(full - a), full - up(a)),
        ("2-1", "9"): lambda: fixed(lo(a), lo, up),
        ("2-1", "10"): lambda: fixed(up(a), up, lo),
        ("2-1", "11a"): lambda: inclusion(prod(up(a), up(b)), up(prod(a, b))),
        ("2-1", "11b"): lambda: inclusion(up(prod(a, b)), prod(up(a), up(b))),
        ("2-1", "12"): lambda: inclusion(prod(lo(a), lo(b)), lo(prod(a, b))),
        ("3-1", "1"): bounds,
        ("3-1", "2"): lambda: equality(up(a | b), up(a) | up(b)),
        ("3-1", "3"): lambda: equality(lo(a & b), lo(a) & lo(b)),
        ("3-1", "4"): monotone,
        ("3-1", "5"): lambda: inclusion(lo(a) | lo(b), lo(a | b)),
        ("3-1", "6"): lambda: inclusion(up(a & b), up(a) & up(b)),
        ("3-2", "1"): lambda: inclusion(prod(up(a), up(b)), up(prod(a, b))),
        ("3-2", "2"): lambda: (inclusion(prod(lo(a), lo(b)), lo(prod(a, b)))
                               if lo(prod(a, b)) else (None, None)),
    }
    return laws[suite, number]()


def naive_unmet(suite, number, lo, prod, a, b):
    """Whether a law's premise or guard does not hold on the subsets a and b: A <= B for
    monotonicity (3-1 law 4), lower(A*B) nonempty for 3-2 law 2; the other laws have none."""
    a, b = set(a), set(b)
    if (suite, number) == ("3-1", "4"):
        return not a <= b
    if (suite, number) == ("3-2", "2"):
        return not lo(prod(a, b))
    return False


# the suite laws that read the operation; a hunt for one of them sweeps congruences
PRODUCT_LAWS = {("2-1", "11a"), ("2-1", "11b"), ("2-1", "12"), ("3-2", "1"), ("3-2", "2")}


def rgs_partitions(n):
    """Every partition of {0..n-1} as a tuple of class tuples, in lexicographic
    order of the restricted-growth string (each label at most one above the
    largest label before it)."""
    for rgs in itertools.product(range(n), repeat=n):
        if all(rgs[i] <= max(rgs[:i], default=-1) + 1 for i in range(n)):
            yield tuple(tuple(x for x in range(n) if rgs[x] == c) for c in range(max(rgs) + 1))


def rgs_related_pairs(n):
    """Every partition of {0..n-1} in restricted-growth order, as (rgs, pairs): its class index
    (each element's class number, classes numbered by least element) and the pairs x < y that
    share a class."""
    out = []
    for classes in rgs_partitions(n):
        rgs = tuple(next(i for i, c in enumerate(classes) if x in c) for x in range(n))
        out.append((rgs, [(x, y) for x in range(n) for y in range(x + 1, n) if rgs[x] == rgs[y]]))
    return out


def congruent_rgs(table, related_pairs):
    """The class indexes among related_pairs (from rgs_related_pairs) that are congruences of
    table, in their order: for each related pair x, y and every z, x*z ~ y*z and z*x ~ z*y.  The
    test is symmetric in x and y, so the pairs x < y are all it needs to read."""
    n = len(table)
    return [rgs for rgs, pairs in related_pairs
            if all(rgs[table[x][z]] == rgs[table[y][z]] and rgs[table[z][x]] == rgs[table[z][y]]
                   for x, y in pairs for z in range(n))]


def naive_hunt(table_models, n, target):
    """(witness, algebra, classes, a, b, note) of the first counterexample to a
    hunt target, or None.

    ``target`` reads "suite:number", optionally with "-complete" or
    "-incomplete" after the number.  A law that reads the operation is
    hunted over the models in the given order, and for each over its
    congruences (only those of that completeness, with a suffix); any
    other law once over every partition of {0..n-1}, with no algebra.
    Partitions come in restricted-growth order, subset pairs A outer, B
    inner, each by cardinality then elements.
    """
    suite, law = target.split(":")
    number, _, scope = law.partition("-")
    complete = {"": None, "complete": True, "incomplete": False}[scope]
    product = (suite, number) in PRODUCT_LAWS
    subsets = [c for k in range(n + 1) for c in itertools.combinations(range(n), k)]
    for model in table_models if product else (None,):
        table = model.table if product else [[0] * n] * n  # the laws that take no model never read it
        for classes in rgs_partitions(n):
            note = ""
            if product:
                if not is_congruence(table, classes):
                    continue
                is_complete = is_complete_congruence(table, classes)
                if complete is not None and is_complete != complete:
                    continue
                note = "complete congruence" if is_complete else "congruence, not complete"
            for a in subsets:
                for b in subsets:
                    holds, witness = naive_law(suite, number, table, classes, a, b)
                    if holds is False:
                        return witness, model, classes, a, b, note
    return None


def relabel(table, p):
    """The table of the algebra with each element x renamed p[x]: the new
    p[x]*p[y] is p[x*y]."""
    n = len(table)
    out = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[p[x]][p[y]] = p[table[x][y]]
    return out


def relabellings_fixing_zero(n):
    """Every permutation of {0..n-1} that maps 0 to 0, the identity first."""
    return [p for p in itertools.permutations(range(n)) if p[0] == 0]


def is_least_relabelling(table):
    """True when the table, read row by row, is the least of all its
    relabellings that fix 0."""
    flat = [v for row in table for v in row]
    return all(flat <= [v for row in relabel(table, p) for v in row]
               for p in relabellings_fixing_zero(len(table)))
