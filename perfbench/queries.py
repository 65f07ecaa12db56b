"""The seeded cli-queries mix and its oracle answers.

Each query is one README-style single-answer command on a fixture table
or a relabelled copy, in text or JSON format.  Arguments are drawn so that
no query is a usage error: the partitions given to ``verify --prop 3-2``
are congruences, and the ideals given to ``approx --ideal`` induce an
equivalence.  The expected answer of each query is computed here with
naive.py and tests/oracles.py, and returned as a checker that reads the
query's exit code and output and returns an error string or None.
"""

import itertools
import json

import naive
import oracles

KINDS = ("check", "identities", "ideals", "congruences", "approx",
         "claim", "prop", "morphism")
LABEL_AXIOMS = {"B": ("C1", "C2", "C3"), "BH": ("C1", "C2", "C4"),
                "BO": ("C1", "C2", "C5"), "Z": ("C1", "C2", "C6", "C7")}
CHECK, CROSS = "✓", "✗"


def set_text(s):
    return "{" + ",".join(map(str, sorted(s))) + "}"


def arg_set(s):
    return ",".join(map(str, sorted(s)))


def partition_arg(classes):
    return "|".join(",".join(map(str, c)) for c in classes)


def classes_of(classes):
    """Normal form of a partition: classes sorted, ordered by least element."""
    return sorted(sorted(c) for c in classes)


def labels(table, zero):
    return sorted(lab for lab, axs in LABEL_AXIOMS.items()
                  if all(not oracles.axiom_violations(table, a, zero) for a in axs))


class TableFacts:
    """Per-table reference facts shared by the queries on that table."""

    def __init__(self, path, table, zero):
        self.path, self.table, self.zero = path, table, zero
        self.n = len(table)
        subsets = naive.canonical_subsets(self.n)
        self.congruences = [classes_of(p) for p in naive.congruences(table)]
        self.ideals = [s for s in subsets if oracles.is_ideal(table, s, zero)]
        self.strong_ideals = [s for s in subsets if oracles.is_strong_ideal(table, s, zero)]
        self.equivalence_ideals = [s for s in self.ideals if self.ideal_classes(s) is not None]

    def relation(self, s):
        t = self.table
        return {(x, y) for x in range(self.n) for y in range(self.n) if t[x][y] in s and t[y][x] in s}

    def ideal_classes(self, s):
        pairs = self.relation(s)
        if not all(oracles.equivalence_properties(self.n, pairs)):
            return None
        return classes_of({frozenset(y for y in range(self.n) if (x, y) in pairs)
                           for x in range(self.n)})


def _witness(w):
    """A witness as the JSON report prints it: a list, or None."""
    if w is None:
        return None
    return list(w) if isinstance(w, tuple) else [w]


def congruence_witness(table, classes):
    """First (x, y, z, side) breaking compatibility, as is_congruence reports it."""
    n = len(table)
    label = {x: i for i, c in enumerate(classes) for x in c}
    for x, y, z in itertools.product(range(n), repeat=3):
        if label[x] != label[y]:
            continue
        if label[table[x][z]] != label[table[y][z]]:
            return [x, y, z, "right"]
        if label[table[z][x]] != label[table[z][y]]:
            return [x, y, z, "left"]
    return None


def completeness_witness(table, classes):
    """First (x, y, direction, element) with [x]*[y] != [x*y]."""
    n = len(table)
    for x, y in itertools.product(range(n), repeat=2):
        prod = naive.prod(table, oracles.class_of(classes, x), oracles.class_of(classes, y))
        cls = oracles.class_of(classes, table[x][y])
        if prod - cls:
            return [x, y, "extra", min(prod - cls)]
        if cls - prod:
            return [x, y, "missing", min(cls - prod)]
    return None


def _random_partition(rng, n):
    labels_ = [0]
    for _ in range(1, n):
        labels_.append(rng.randint(0, max(labels_) + 1))
    return classes_of([[i for i in range(n) if labels_[i] == c] for c in set(labels_)])


def _random_subset(rng, n):
    return frozenset(i for i in range(n) if rng.random() < 0.5)


def _expect(code, json_fields=None, text_lines=()):
    """Checker for one query: exit code, JSON fields or text lines."""
    def check(got_code, out, fmt):
        if got_code != code:
            return f"exit code {got_code}, expected {code}"
        if fmt == "json":
            doc = json.loads(out)
            for key, want in (json_fields or {}).items():
                got = want[0](doc) if isinstance(want, tuple) else doc.get(key)
                want = want[1] if isinstance(want, tuple) else want
                if got != want:
                    return f"{key}: {got!r}, expected {want!r}"
        else:
            lines = out.splitlines()
            for line in text_lines:
                if line not in lines:
                    return f"missing line {line!r}"
        return None
    return check


def _q_check(rng, f):
    label = rng.choice(sorted(LABEL_AXIOMS))
    viol = {a: oracles.axiom_violations(f.table, a, f.zero) for a in LABEL_AXIOMS[label]}
    ok = not any(viol.values())
    marks = " ".join(f"{a} {CROSS if w else CHECK}" for a, w in viol.items())
    results = [[a, not w, [list(x) for x in w]] for a, w in viol.items()]
    return ["check", f.path, "--axioms", label.lower()], _expect(
        0 if ok else 1,
        {"results": (lambda d: [[r["axiom"], r["holds"], r["witnesses"]] for r in d["results"]], results),
         "verdict": "pass" if ok else "fail"},
        [f"{label}: {marks}"])


def _q_identities(rng, f):
    t, n = f.table, f.n
    left = [e for e in range(n) if all(t[e][x] == x for x in range(n))]
    right = [e for e in range(n) if all(t[x][e] == x for x in range(n))]
    both = sorted(set(left) & set(right))
    return ["identities", f.path], _expect(
        0, {"left": left, "right": right, "two_sided": both},
        [f"left identities: {set_text(left)}", f"right identities: {set_text(right)}",
         f"two-sided identities: {set_text(both)}"])


def _q_ideals(rng, f):
    strong = rng.random() < 0.5
    found = f.strong_ideals if strong else f.ideals
    kind = "strong ideals" if strong else "ideals"
    argv = ["ideals", f.path] + (["--strong"] if strong else [])
    return argv, _expect(
        0, {"count": len(found), "ideals": [sorted(s) for s in found], "strong": strong},
        [f"{len(found)} {kind}"] + [set_text(s) for s in found])


def _q_congruences(rng, f):
    complete = [oracles.is_complete_congruence(f.table, p) for p in f.congruences]
    return ["congruences", f.path], _expect(
        0, {"count": len(f.congruences),
            "congruences": [{"partition": p, "complete": c} for p, c in zip(f.congruences, complete)]},
        [f"{len(f.congruences)} congruences"]
        + [partition_arg(p) + ("  (complete)" if c else "") for p, c in zip(f.congruences, complete)])


def _q_approx(rng, f):
    a = _random_subset(rng, f.n)
    if rng.random() < 0.5:
        classes = _random_partition(rng, f.n)
        argv = ["approx", f.path, "--partition", partition_arg(classes)]
    else:
        ideal = rng.choice(f.equivalence_ideals)
        classes = f.ideal_classes(ideal)
        argv = ["approx", f.path, "--ideal", arg_set(ideal)]
    lo, up = naive.lower(classes, a), naive.upper(classes, a)
    bd = up - lo
    return argv + ["--set", arg_set(a)], _expect(
        0, {"partition": classes, "lower": sorted(lo), "upper": sorted(up),
            "boundary": sorted(bd), "rough": bool(bd)},
        [f"lower: {set_text(lo)}", f"upper: {set_text(up)}", f"boundary: {set_text(bd)}",
         "rough: " + ("yes" if bd else "no (definable)")])


def _q_claim(rng, f):
    claim = rng.choice(("ideal", "strong-ideal", "congruence", "complete-congruence",
                        "equivalence-from-ideal"))
    argv = ["verify", f.path, "--claim", claim]
    if claim in ("congruence", "complete-congruence"):
        classes = rng.choice(f.congruences) if rng.random() < 0.5 else _random_partition(rng, f.n)
        witness = congruence_witness(f.table, classes)
        if witness is None and claim == "complete-congruence":
            witness = completeness_witness(f.table, classes)
        ok = witness is None
        line = f"claim {claim}: holds" if ok else None
        return argv + ["--partition", partition_arg(classes)], _expect(
            0 if ok else 1,
            {"congruence": oracles.is_congruence(f.table, classes), "witness": witness,
             "verdict": "pass" if ok else "fail"},
            [line] if line else [])
    if claim == "equivalence-from-ideal":
        s = rng.choice(f.ideals) if rng.random() < 0.5 else _random_subset(rng, f.n)
        ok = all(oracles.equivalence_properties(f.n, f.relation(s)))
        return argv + ["--set", arg_set(s)], _expect(
            0 if ok else 1, {"equivalence": ok, "pairs": sorted(list(p) for p in f.relation(s))},
            [f"relation induced by {set_text(s)} is " + ("an equivalence" if ok else "NOT an equivalence")])
    # a member of the pool, the same without zero (only has_zero fails), or any subset
    member = rng.choice(f.strong_ideals if claim == "strong-ideal" else f.ideals)
    s = rng.choice((member, member - {f.zero}, _random_subset(rng, f.n)))
    pair_ok = not oracles.ideal_pair_violations(f.table, s)
    if claim == "strong-ideal":
        ok = oracles.is_strong_ideal(f.table, s, f.zero)
        triple = not oracles.ideal_triple_violations(f.table, s)
    else:
        ok = oracles.is_ideal(f.table, s, f.zero)
        triple = None
    return argv + ["--set", arg_set(s)], _expect(
        0 if ok else 1,
        {"has_zero": f.zero in s, "pair_closed": pair_ok, "triple_closed": triple,
         "pair_witnesses": [list(w) for w in oracles.ideal_pair_violations(f.table, s)],
         "triple_witnesses": [list(w) for w in oracles.ideal_triple_violations(f.table, s)]
         if claim == "strong-ideal" else [],
         "verdict": "pass" if ok else "fail"},
        [f"claim {claim} on {set_text(s)}: " + ("holds" if ok else "FAILS")])


def _q_prop(rng, f):
    prop = rng.choice(("2-1", "3-1", "3-2"))
    a, b = _random_subset(rng, f.n), _random_subset(rng, f.n)
    if prop == "3-2":
        classes = rng.choice(f.congruences)
        up_ex, low = naive.product_laws(f.table, classes, a, b)
        results = [[up_ex is None, _witness(up_ex)],
                   [None, None] if low == "guard" else [low is None, _witness(low)]]
        complete = oracles.is_complete_congruence(f.table, classes)
        ok = False not in [r[0] for r in results]
        got = (lambda d: [[r["holds"], r["witness"]] for r in d["results"]], results)
        fields = {"results": got, "congruence_complete": complete}
        lines = [f"congruence complete: {'yes' if complete else 'no'}"]
    else:
        classes = _random_partition(rng, f.n)
        r = (naive.approx_laws(f.table, classes, a, b) if prop == "2-1"
             else naive.basic_laws(classes, a, b))
        ok = all(r[law] for law in naive.GATE[prop])
        # gated laws are theorems; a failing measured law carries its least excess element
        want = {law: [holds, None if holds else _witness(
            naive.approx_law_witness(f.table, classes, law, a, b))] for law, holds in r.items()}
        fields = {"results": (lambda d: {x["law"]: [x["holds"], x["witness"]] for x in d["results"]}, want)}
        lines = []
    fields["verdict"] = "pass" if ok else "fail"
    argv = ["verify", f.path, "--prop", prop, "--partition", partition_arg(classes),
            "--set", arg_set(a), "--set2", arg_set(b)]
    return argv, _expect(0 if ok else 1, fields, lines)


def _q_morphism(rng, f):
    n, t = f.n, f.table
    shape = rng.choice(("identity", "classes", "perturbed", "random"))
    if shape == "classes":
        p = rng.choice(f.congruences)
        images = [frozenset(next(c for c in p if x in c)) for x in range(n)]
    elif shape == "random":
        images = [_random_subset(rng, n) for _ in range(n)]
    else:
        images = [frozenset([x]) for x in range(n)]
        if shape == "perturbed":
            x = rng.randrange(n)
            images[x] = images[x] | {rng.randrange(n)}
    strong = rng.random() < 0.5
    witness = None
    for x, y in itertools.product(range(n), repeat=2):
        prod, img = naive.prod(t, images[x], images[y]), images[t[x][y]]
        if prod - img:
            witness = (("extra",) if strong else ()) + (x, y, min(prod - img))
        elif strong and img - prod:
            witness = ("missing", x, y, min(img - prod))
        if witness:
            break
    ok = witness is None
    kind = "strong set-valued morphism" if strong else "set-valued morphism"
    argv = ["morphism", f.path, "--map", ";".join(f"{x}:{arg_set(images[x])}" for x in range(n))]
    lab = labels(t, f.zero)
    return argv + (["--strong"] if strong else []), _expect(
        0 if ok else 1,
        {"holds": ok, "witness": _witness(witness), "source_labels": lab, "target_labels": lab},
        [f"{kind}: {'yes' if ok else 'NO'}", f"source labels: {lab}"]
        + ([] if ok else [f"witness: {witness}"]))


BUILDERS = {"check": _q_check, "identities": _q_identities, "ideals": _q_ideals,
            "congruences": _q_congruences, "approx": _q_approx, "claim": _q_claim,
            "prop": _q_prop, "morphism": _q_morphism}


def build_mix(rng, facts):
    """Queries as (kind, argv, format, checker), drawn from rng.

    Every kind runs on every table in both formats, so the mix's total
    work barely depends on the seed; only the arguments and the order are
    random.
    """
    mix = []
    for kind in KINDS:
        for f in facts:
            for fmt in ("text", "json"):
                argv, checker = BUILDERS[kind](rng, f)
                mix.append((kind, argv + ["--format", fmt], fmt, checker))
    rng.shuffle(mix)
    return mix
