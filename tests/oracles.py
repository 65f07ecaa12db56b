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


def naive_law(suite, number, table, classes, a, b):
    """(holds, witness) of one suite law on the subsets a and b.

    Straight from the suite definitions, on Python sets.  A witness names
    the least offending element; ``holds`` is None where the law does not
    speak (3-2 law 2 when lower(A*B) is empty), and monotonicity (3-1 law
    4) holds vacuously when A is not inside B.
    """
    full = set(range(len(table)))
    a, b = set(a), set(b)

    def lo(s):
        return naive_lower(classes, s)

    def up(s):
        return naive_upper(classes, s)

    def prod(x, y):
        return set_product(table, x, y)

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
