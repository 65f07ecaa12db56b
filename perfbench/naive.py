"""Reference answers for the benchmark, computed without roughalg.

Everything here works on plain lists, ints and frozensets, straight from
the definitions, and builds on the naive primitives in ``tests/oracles.py``
(lower/upper, set products, congruence tests, axiom violations).  It
shares no code with the package.  ``derive.py`` uses it to pin the heavy
answers in ``data/answers.json``; ``run.py`` uses it at set-up for the
seeded query mix and to re-check witnesses after each run.

Orders used by the package and reproduced here:

* subsets: by cardinality, then by the sorted element tuple;
* subset pairs: A outer, B inner, both in subset order;
* partitions: lexicographic restricted-growth strings (one class first);
* tables: lexicographic in the flattened table, cells pinned by C1 and C2
  held fixed.
"""

import itertools
import math

import oracles


# ---------------------------------------------------------------- orders

def canonical_subsets(n):
    subs = [frozenset(c) for k in range(n + 1) for c in itertools.combinations(range(n), k)]
    return sorted(subs, key=lambda s: (len(s), tuple(sorted(s))))


def canonical_pairs(n):
    subs = canonical_subsets(n)
    return [(a, b) for a in subs for b in subs]


def partitions_rgs(n):
    """Partitions of {0..n-1} as lists of sorted lists, in RGS order."""
    out = []
    for rgs in itertools.product(range(n), repeat=n):
        if rgs[0] != 0:
            continue
        if any(rgs[i] > max(rgs[:i]) + 1 for i in range(1, n)):
            continue
        k = max(rgs) + 1
        out.append([[i for i in range(n) if rgs[i] == c] for c in range(k)])
    return out


# ---------------------------------------------------------------- operators

def lower(classes, a):
    return frozenset(oracles.naive_lower(classes, a))


def upper(classes, a):
    return frozenset(oracles.naive_upper(classes, a))


def prod(table, a, b):
    return frozenset(oracles.set_product(table, a, b))


def first_excess(x, y):
    d = set(x) - set(y)
    return min(d) if d else None


def congruence_note(table, classes):
    if not oracles.is_congruence(table, classes):
        return "partition is not a congruence of the algebra"
    if oracles.is_complete_congruence(table, classes):
        return "partition is a complete congruence of the algebra"
    return "partition is a congruence of the algebra, but not complete"


# ---------------------------------------------------------------- law suites

def approx_laws(table, classes, a, b):
    """Suite 2-1: law id -> holds, for laws 1-10, 11a, 11b and 12."""
    n = len(table)
    full = frozenset(range(n))
    lo = lambda s: lower(classes, s)  # noqa: E731
    up = lambda s: upper(classes, s)  # noqa: E731
    la, ua, lb, ub = lo(a), up(a), lo(b), up(b)
    r = {
        "1": la <= a <= ua,
        "2": lo(frozenset()) == frozenset() and up(frozenset()) == frozenset()
        and lo(full) == full and up(full) == full,
        "3": la | lb <= lo(a | b),
        "4": lo(a & b) == la & lb,
        "5": up(a | b) == ua | ub,
        "6": up(a & b) <= ua & ub,
        "7": up(full - a) == full - la,
        "8": lo(full - a) == full - ua,
        "9": lo(la) == la and up(la) == la,
        "10": up(ua) == ua and lo(ua) == ua,
    }
    ab = prod(table, a, b)
    r["11a"] = prod(table, ua, ub) <= up(ab)
    r["11b"] = up(ab) <= prod(table, ua, ub)
    r["12"] = prod(table, la, lb) <= lo(ab)
    return r


def approx_law_witness(table, classes, law, a, b):
    """Witness element of a failing measured law (11a, 11b, 12)."""
    la, ua = lower(classes, a), upper(classes, a)
    lb, ub = lower(classes, b), upper(classes, b)
    ab = prod(table, a, b)
    if law == "11a":
        return first_excess(prod(table, ua, ub), upper(classes, ab))
    if law == "11b":
        return first_excess(upper(classes, ab), prod(table, ua, ub))
    return first_excess(prod(table, la, lb), lower(classes, ab))


def basic_laws(classes, a, b):
    """Suite 3-1: law id -> holds, for laws 1-6."""
    lo = lambda s: lower(classes, s)  # noqa: E731
    up = lambda s: upper(classes, s)  # noqa: E731
    la, ua, lb, ub = lo(a), up(a), lo(b), up(b)
    return {
        "1": la <= a <= ua,
        "2": up(a | b) == ua | ub,
        "3": lo(a & b) == la & lb,
        "4": not a <= b or (la <= lb and ua <= ub),
        "5": la | lb <= lo(a | b),
        "6": up(a & b) <= ua & ub,
    }


def product_laws(table, classes, a, b):
    """Suite 3-2 on one pair: (upper excess, lower excess or None if guarded).

    Each excess is the least element of the failing inclusion, or None.
    The lower law only speaks when lower(A*B) is nonempty; the second
    item is then the string "guard" instead.
    """
    ab = prod(table, a, b)
    up_ex = first_excess(prod(table, upper(classes, a), upper(classes, b)), upper(classes, ab))
    lab = lower(classes, ab)
    if not lab:
        return up_ex, "guard"
    return up_ex, first_excess(prod(table, lower(classes, a), lower(classes, b)), lab)


# ---------------------------------------------------------------- sweeps

GATE = {"2-1": [str(i) for i in range(1, 11)], "3-1": [str(i) for i in range(1, 7)]}
MEASURED = {"2-1": ["11a", "11b", "12"], "3-1": []}


def congruences(table):
    return [p for p in partitions_rgs(len(table)) if oracles.is_congruence(table, p)]


def sweep_counts(table, prop, partition=None):
    """Count-level fields of ``verify --prop P --exhaustive`` for one table."""
    n = len(table)
    pairs = canonical_pairs(n)
    if prop == "3-2":
        congs = congruences(table)
        out = {"congruences": len(congs), "pairs": len(pairs), "guard_skips": 0,
               "part1": 0, "part2_complete": 0, "part2_incomplete": 0}
        for p in congs:
            complete = oracles.is_complete_congruence(table, p)
            for a, b in pairs:
                up_ex, low = product_laws(table, p, a, b)
                out["part1"] += up_ex is not None
                if low == "guard":
                    out["guard_skips"] += 1
                elif low is not None:
                    out["part2_complete" if complete else "part2_incomplete"] += 1
        out["verdict"] = "pass" if not out["part1"] and not out["part2_complete"] else "fail"
        return out
    parts = [partition] if partition is not None else partitions_rgs(n)
    violations = 0
    measured = {law: {"holds": 0, "fails": 0, "not_applicable": 0} for law in MEASURED[prop]}
    for p in parts:
        for a, b in pairs:
            r = approx_laws(table, p, a, b) if prop == "2-1" else basic_laws(p, a, b)
            violations += sum(not r[law] for law in GATE[prop])
            for law in MEASURED[prop]:
                measured[law]["holds" if r[law] else "fails"] += 1
    return {"partitions": len(parts), "pairs": len(pairs), "violations": violations,
            "measurements": measured, "verdict": "pass" if not violations else "fail"}


# ---------------------------------------------------------------- model search

AXIOMS = {"b": ("C1", "C2", "C3"), "bh": ("C1", "C2", "C4"), "bo": ("C1", "C2", "C5")}


def models(n, label):
    """Every table of order n satisfying the label, zero 0, in lex order."""
    free = [(x, y) for x in range(n) for y in range(n) if x != y and y != 0]
    checks = [a for a in AXIOMS[label] if a not in ("C1", "C2")]
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        table[x][0] = x
    for values in itertools.product(range(n), repeat=len(free)):
        for (x, y), v in zip(free, values):
            table[x][y] = v
        if all(not oracles.axiom_violations(table, a) for a in checks):
            yield [row[:] for row in table]


def cyclic_group(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def symmetric_group_3():
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]


def automorphisms(group):
    """|Aut G| by brute force over bijections fixing the identity 0."""
    n = len(group)
    count = 0
    for rest in itertools.permutations(range(1, n)):
        f = (0,) + rest
        if all(f[group[a][b]] == group[f[a]][f[b]] for a in range(n) for b in range(n)):
            count += 1
    return count


def is_abelian(group):
    n = len(group)
    return all(group[a][b] == group[b][a] for a in range(n) for b in range(n))


# Groups of order n up to isomorphism, for the orders the benchmark uses.
GROUPS = {6: [cyclic_group(6), symmetric_group_3()], 7: [cyclic_group(7)]}


def b_model_count(n, abelian_only=False):
    """B (or BO) models of order n: sum of (n-1)!/|Aut G| over groups G.

    A B model is a group with x*y = x.y^-1 and identity 0 (x.y = x*(0*y));
    labelled copies with identity 0 number (n-1)!/|Aut G| per group.
    BO models are the abelian ones.
    """
    total = 0
    for g in GROUPS[n]:
        if abelian_only and not is_abelian(g):
            continue
        aut = automorphisms(g)
        assert math.factorial(n - 1) % aut == 0
        total += math.factorial(n - 1) // aut
    return total


def bh_model_count(n):
    """Closed form for BH models of order n: n^(n-1) * (n^2-1)^C(n-1, 2).

    Row 0 off the pinned cell is free (n^(n-1)); each unordered pair of
    nonzero elements x < y takes any (x*y, y*x) except (0, 0).
    """
    return n ** (n - 1) * (n * n - 1) ** math.comb(n - 1, 2)


# ---------------------------------------------------------------- hunts

HUNT_LAWS = {
    "2-1:11a": ("suite", "11a", "congruence"),
    "2-1:12": ("suite", "12", "congruence"),
    "3-2:1": ("upper", None, "congruence"),
    "3-2:2-complete": ("lower", None, "congruence-complete"),
}


def hunt(n, label, target):
    """First counterexample in canonical order, and the pair evaluations made.

    Returns (finding or None, evaluations).  A finding is a dict with the
    same fields as the ``finding`` object of ``search --find --format json``.
    """
    kind, law, scope = HUNT_LAWS[target]
    pairs = canonical_pairs(n)
    evaluations = 0
    for table in models(n, label):
        for p in congruences(table):
            complete = oracles.is_complete_congruence(table, p)
            if scope == "congruence-complete" and not complete:
                continue
            for a, b in pairs:
                evaluations += 1
                w = hunt_witness(table, p, kind, law, a, b)
                if w is not None:
                    return {
                        "algebra": {"order": n, "zero": 0, "rows": table},
                        "partition": p,
                        "a": sorted(a), "b": sorted(b), "witness": [w],
                        "note": "complete congruence" if complete else "congruence, not complete",
                    }, evaluations
    return None, evaluations


def hunt_witness(table, classes, kind, law, a, b):
    if kind == "suite":
        return approx_law_witness(table, classes, law, a, b)
    up_ex, low = product_laws(table, classes, a, b)
    if kind == "upper":
        return up_ex
    return None if low == "guard" else low
