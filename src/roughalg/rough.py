"""The law registry of the approximation suites, and its views.

A partition's lower and upper approximations are those of its class map
x -> [x], computed by ``generalized``'s one mask kernel.  Each law of the
suites 2-1, 3-1 and 3-2 is defined once, in ``LAWS``, as a table kernel on
integer masks that reads ``L[m]``, ``U[m]`` (lower and upper
approximation) and ``P[a][b]`` (set product).  Called with a row of A
masks and a row of B masks, it returns only the pairs the law fails on.
The exhaustive ``sweep_laws`` calls it once per partition with every A and
every B, on full tables; the single-pair views ``check_approx_laws``,
``check_basic_laws`` and ``check_congruence_product_laws`` call it with one
A and one B, on tables computed on demand.  A sweep reads its partitions,
their classes, the pair order and the L/U tables from a ``_Carrier``, which
builds each partition's tables once; a hunt keeps one carrier for all its
algebras, so only the product table (built row from row, one OR per entry)
is built per algebra.  A sweep reads whether a partition is a congruence,
and whether a complete one, from the product table with one lookup per
pair of classes.
"""

import time
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .algebra import FiniteAlgebra, _low, product_mask
from .errors import SearchLimitError, ValidationError
from .generalized import _lower_mask, _upper_mask
from .relations import Partition, SetValuedMap, _completeness, is_congruence, require_congruence
from .sets import Subset, canonical_subsets


# ---------------------------------------------------------------- mask contexts

# What a law predicate reads: L[m], U[m], P[a][b] and the full mask.
_Masks = namedtuple("_Masks", "L U P full")


class _OnDemand(dict):
    """Indexable like a table; computes each entry when it is first read."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        return self.setdefault(key, self.fn(key))


def _on_demand(p: Partition, alg: FiniteAlgebra | None, a: Subset, b: Subset) -> _Masks:
    """Context of a single-pair view; ValidationError unless alg, a and b live on p's carrier."""
    if alg is not None and alg.n != p.n:
        raise ValidationError(f"algebra carrier {alg.n} does not match partition carrier {p.n}")
    for s in (a, b):
        if s.n != p.n:
            raise ValidationError(f"subset carrier {s.n} does not match partition carrier {p.n}")
    images, full = p.masks, (1 << p.n) - 1
    return _Masks(_OnDemand(lambda m: _lower_mask(images, m, full)),
                  _OnDemand(lambda m: _upper_mask(images, m)),
                  _OnDemand(lambda a: _OnDemand(lambda b: product_mask(alg, a, b))), full)


def _tables(f: SetValuedMap, P: list[list[int]] | None) -> _Masks:
    """Context of a sweep: L[m] and U[m] of f for every mask m, and products P."""
    images, masks = f.masks, range(1 << f.n_target)
    L = [_lower_mask(images, m, masks[-1]) for m in masks]
    return _Masks(L, [_upper_mask(images, m) for m in masks], P, masks[-1])


def _product_table(alg: FiniteAlgebra) -> list[list[int]]:
    """P[a][b] for every mask pair, each entry one OR of two earlier ones.  With y
    the top element of b, R[x][b] = R[x][b - y] | {x*y} is the image of b under
    row x; with x the top element of a, P[a][b] = P[a - x][b] | R[x][b]."""
    R = []
    for row in alg.table:
        r = [0]
        for xy in row:  # the next element y: r[m + (1 << y)] = r[m] | {x*y} for each m below 1 << y
            r += [m | 1 << xy for m in r]
        R.append(r)
    P = [[0] * len(R[0])]
    for r in R:
        P += [[p | q for p, q in zip(row, r)] for row in P]
    return P


def _congruence(P, algebra: FiniteAlgebra, classes: list[tuple[int, int]], masks) -> bool | None:
    """Whether the partition with these classes and class masks is a complete congruence of
    algebra, whose products are P; None when it is no congruence.  Each x*y with x in X and
    y in Y lies in P[X][Y]: it is a congruence when every P[X][Y] lies inside the class of
    x0*y0 (x0 and y0 the least elements of X and Y), and complete when every one equals it."""
    t, complete = algebra.table, True
    for X, x in classes:
        PX, tx = P[X], t[x]
        for Y, y in classes:
            q, m = PX[Y], masks[tx[y]]
            if q != m:
                if q & ~m:
                    return None
                complete = False
    return complete


_NOTES = {None: "partition is not a congruence of the algebra",
          True: "partition is a complete congruence of the algebra",
          False: "partition is a congruence of the algebra, but not complete"}


class _Carrier:
    """What a sweep of partitions of {0..n-1} reads that no algebra changes: the
    partitions, their classes as (mask, least element) pairs, the subset masks in
    canonical pair order, and each partition's L and U tables, built the first time
    that partition is swept.  A hunt builds one and sweeps every algebra over it."""

    __slots__ = ("n", "partitions", "classes", "order", "_approximations")

    def __init__(self, n: int, partitions: list[Partition]):
        self.n, self.partitions = n, partitions
        self.classes = [[(c.mask, _low(c.mask)) for c in p.classes] for p in partitions]
        self.order = [s.mask for s in canonical_subsets(n)]
        self._approximations: list[_Masks | None] = [None] * len(partitions)

    def context(self, i: int, P: list[list[int]] | None) -> _Masks:
        """The sweep context of partition i, with products P."""
        c = self._approximations[i]
        if c is None:
            c = self._approximations[i] = _tables(self.partitions[i], None)
        return _Masks(c.L, c.U, P, c.full)


# ---------------------------------------------------------------- the registry

# Each table kernel below is one comprehension over the rows of A and B masks, with no call
# per pair; a law that does not read B decides once per A and repeats a failing verdict (_every).


def _equal(x: int, y: int):
    if x == y:
        return None
    d = x & ~y
    return ("left-minus-right", _low(d)) if d else ("right-minus-left", _low(y & ~x))


def _every(verdict, as_, bs):
    """The failures of a law whose verdict(a) does not read B."""
    ks = range(len(bs))
    return [(j, k, w) for j, a in enumerate(as_) if (w := verdict(a)) is not None for k in ks]


def _bounds(c, as_, bs):
    L, U = c.L, c.U
    return _every(lambda a: ("lower-outside-set", _low(d)) if (d := L[a] & ~a)
                  else ("set-outside-upper", _low(e)) if (e := a & ~U[a]) else None, as_, bs)


def _extremes(c, as_, bs):
    L, U, full = c.L, c.U, c.full
    w = ("empty",) if L[0] or U[0] else ("universe",) if (L[full] & U[full]) != full else None
    return _every(lambda a: w, as_, bs)


def _lower_join(c, as_, bs):
    L = c.L
    return [(j, k, (_low(d),)) for j, a in enumerate(as_) for la in [L[a]]
            for k, b in enumerate(bs) if (d := (la | L[b]) & ~L[a | b])]


def _lower_meet(c, as_, bs):
    L = c.L
    return [(j, k, _equal(x, y)) for j, a in enumerate(as_) for la in [L[a]]
            for k, b in enumerate(bs) if (x := L[a & b]) != (y := la & L[b])]


def _upper_join(c, as_, bs):
    U = c.U
    return [(j, k, _equal(x, y)) for j, a in enumerate(as_) for ua in [U[a]]
            for k, b in enumerate(bs) if (x := U[a | b]) != (y := ua | U[b])]


def _upper_meet(c, as_, bs):
    U = c.U
    return [(j, k, (_low(d),)) for j, a in enumerate(as_) for ua in [U[a]]
            for k, b in enumerate(bs) if (d := U[a & b] & ~(ua & U[b]))]


def _fixed(first, second, as_, bs):
    """first[a] is a fixed point of the operator tables first, then second."""
    return _every(lambda a: _equal(first[first[a]], first[a]) or _equal(second[first[a]], first[a]), as_, bs)


def _monotone(c, as_, bs):
    L, U = c.L, c.U
    return [(j, k, ("lower", _low(d)) if d else ("upper", _low(e)))
            for j, a in enumerate(as_) for la, ua in [(L[a], U[a])] for k, b in enumerate(bs)
            if not a & ~b and ((d := la & ~L[b]) or (e := ua & ~U[b]))]


def _product_upper(c, as_, bs):
    U, P = c.U, c.P
    return [(j, k, (_low(d),)) for j, a in enumerate(as_) for Pa, Pua in [(P[a], P[U[a]])]
            for k, b in enumerate(bs) if (d := Pua[U[b]] & ~U[Pa[b]])]


def _product_upper_converse(c, as_, bs):
    U, P = c.U, c.P
    return [(j, k, (_low(d),)) for j, a in enumerate(as_) for Pa, Pua in [(P[a], P[U[a]])]
            for k, b in enumerate(bs) if (d := U[Pa[b]] & ~Pua[U[b]])]


# the lower product laws skip each A with lower(A) empty: lower(A)*lower(B) is then empty
def _product_lower_unguarded(c, as_, bs):
    L, P = c.L, c.P
    return [(j, k, (_low(d),)) for j, a in enumerate(as_) if (la := L[a]) for Pa, Pla in [(P[a], P[la])]
            for k, b in enumerate(bs) if (d := Pla[L[b]] & ~L[Pa[b]])]


def _product_lower(c, as_, bs):
    L, P = c.L, c.P
    return [(j, k, (_low(d),)) for j, a in enumerate(as_) if (la := L[a]) for Pa, Pla in [(P[a], P[la])]
            for k, b in enumerate(bs) if (d := Pla[L[b]] & ~(lab := L[Pa[b]])) and lab]


GATED, MEASURED, GATED_IF_COMPLETE = "gated", "measured", "gated-if-complete"


class Law(NamedTuple):
    """One law, for every suite it belongs to: ``suites`` maps a suite id to
    (local number, role).  GATED laws decide the verdict, MEASURED ones are
    counted, GATED_IF_COMPLETE ones are gated under complete congruences
    only.  ``check(ctx, as_, bs)`` is the law's table kernel on the masks
    as_ and bs: it returns the list, in increasing (j, k), of (j, k, witness)
    for each pair (as_[j], bs[k]) the law fails on; the pairs it holds on,
    or whose premise or guard does not hold, are left out.  ``unmet`` is
    (test, holds, note) for a law with a premise or guard: test(ctx, a, b)
    is true when it does not hold on (a, b), which reports as (holds, note).
    """

    id: str
    description: str
    suites: dict[str, tuple[str, str]]
    check: Callable
    needs_algebra: bool = False
    unmet: tuple[Callable, bool | None, str] | None = None


LAWS: tuple[Law, ...] = (
    Law("bounds", "lower(A) <= A <= upper(A)", {"2-1": ("1", GATED), "3-1": ("1", GATED)}, _bounds),
    Law("extremes", "extremes are fixed points", {"2-1": ("2", GATED)}, _extremes),
    Law("lower-join", "lower(A) | lower(B) <= lower(A | B)", {"2-1": ("3", GATED), "3-1": ("5", GATED)},
        _lower_join),
    Law("lower-meet", "lower(A & B) = lower(A) & lower(B)", {"2-1": ("4", GATED), "3-1": ("3", GATED)},
        _lower_meet),
    Law("upper-join", "upper(A | B) = upper(A) | upper(B)", {"2-1": ("5", GATED), "3-1": ("2", GATED)},
        _upper_join),
    Law("upper-meet", "upper(A & B) <= upper(A) & upper(B)", {"2-1": ("6", GATED), "3-1": ("6", GATED)},
        _upper_meet),
    Law("upper-dual", "upper(~A) = ~lower(A)", {"2-1": ("7", GATED)},
        lambda c, as_, bs: _every(lambda a: _equal(c.U[c.full ^ a], c.full ^ c.L[a]), as_, bs)),
    Law("lower-dual", "lower(~A) = ~upper(A)", {"2-1": ("8", GATED)},
        lambda c, as_, bs: _every(lambda a: _equal(c.L[c.full ^ a], c.full ^ c.U[a]), as_, bs)),
    Law("lower-fixed", "lower(A) is a fixed point of both operators", {"2-1": ("9", GATED)},
        lambda c, as_, bs: _fixed(c.L, c.U, as_, bs)),
    Law("upper-fixed", "upper(A) is a fixed point of both operators", {"2-1": ("10", GATED)},
        lambda c, as_, bs: _fixed(c.U, c.L, as_, bs)),
    Law("monotone", "A <= B implies monotone approximations", {"3-1": ("4", GATED)}, _monotone,
        unmet=(lambda c, a, b: a & ~b, True, "premise A <= B does not hold; vacuously true")),
    Law("product-upper", "upper(A)*upper(B) <= upper(A*B)", {"2-1": ("11a", MEASURED), "3-2": ("1", GATED)},
        _product_upper, needs_algebra=True),
    Law("product-upper-converse", "upper(A*B) <= upper(A)*upper(B)", {"2-1": ("11b", MEASURED)},
        _product_upper_converse, needs_algebra=True),
    # 2-1 law 12 reads the inclusion as is; 3-2 law 2 speaks only when lower(A*B) is nonempty
    Law("product-lower-unguarded", "lower(A)*lower(B) <= lower(A*B)", {"2-1": ("12", MEASURED)},
        _product_lower_unguarded, needs_algebra=True),
    Law("product-lower", "lower(A)*lower(B) <= lower(A*B)", {"3-2": ("2", GATED_IF_COMPLETE)},
        _product_lower, needs_algebra=True,
        unmet=(lambda c, a, b: not c.L[c.P[a][b]], None, "guard not met: lower(A*B) is empty")),
)

# suite id -> [(local number, role, law)] in suite order; 11a and 11b sort between 10 and 12
SUITES: dict[str, list[tuple[str, str, Law]]] = {
    suite: sorted(((*law.suites[suite], law) for law in LAWS if suite in law.suites),
                  key=lambda m: (int(m[0].rstrip("ab")), m[0]))
    for suite in ("2-1", "3-1", "3-2")
}


# ---------------------------------------------------------------- single-pair views

@dataclass(frozen=True)
class LawResult:
    """One law evaluated on concrete inputs.

    ``holds`` is None when the law was not applicable (missing algebra, or
    an unmet guard); ``witness`` pins the first offending element.
    """

    law: str
    description: str
    holds: bool | None
    witness: tuple | None = None
    note: str | None = None


def _result(label: str, law: Law, ctx: _Masks, a: Subset, b: Subset, note: str | None) -> LawResult:
    row = law.check(ctx, (a.mask,), (b.mask,))
    if row:
        return LawResult(label, law.description, False, row[0][2], note)
    if law.unmet and law.unmet[0](ctx, a.mask, b.mask):
        return LawResult(label, law.description, law.unmet[1], note=law.unmet[2])
    return LawResult(label, law.description, True, None, note)


def _suite_view(suite: str, p: Partition, a: Subset, b: Subset,
                alg: FiniteAlgebra | None) -> tuple[LawResult, ...]:
    ctx = _on_demand(p, alg, a, b)
    note = None
    if alg is not None and any(law.needs_algebra for _, _, law in SUITES[suite]):
        # one pair has no product table to read the verdict from; these checks are cheaper
        note = _NOTES[_completeness(alg, p).holds if is_congruence(alg, p).holds else None]
    return tuple(
        LawResult(number, law.description, None, note="needs an algebra")
        if law.needs_algebra and alg is None
        else _result(number, law, ctx, a, b, note if law.needs_algebra else None)
        for number, _, law in SUITES[suite]
    )


def check_approx_laws(p: Partition, a: Subset, b: Subset,
                      algebra: FiniteAlgebra | None = None) -> tuple[LawResult, ...]:
    """Suite 2-1: the twelve classic laws evaluated on (a, b).

    Laws 1-10 involve only the approximation operators and are theorems;
    laws 11a/11b/12 involve the algebra's set product and are evaluated as
    observations (holds-here verdicts), with 11 reported one inclusion
    direction at a time.  Without an algebra they come back as
    not-applicable.
    """
    return _suite_view("2-1", p, a, b, algebra)


def check_basic_laws(p: Partition, a: Subset, b: Subset) -> tuple[LawResult, ...]:
    """Suite 3-1: bounds, union/intersection laws, monotonicity; none reads an algebra."""
    return _suite_view("3-1", p, a, b, None)


def check_congruence_product_laws(
    alg: FiniteAlgebra, p: Partition, a: Subset, b: Subset
) -> tuple[LawResult, ...]:
    """Suite 3-2: the upper, then the lower product law under a congruence
    partition, each labelled by its registry id.

    The upper inclusion is a theorem for any congruence; the lower one
    (evaluated only when lower(A*B) is nonempty) only under a complete
    congruence, which ``is_complete_congruence`` decides.  Raises
    PreconditionError (with the compatibility witness) when p is not a
    congruence of alg.
    """
    require_congruence(alg, p)
    ctx = _on_demand(p, alg, a, b)
    return tuple(_result(law.id, law, ctx, a, b, None) for _, _, law in SUITES["3-2"])


# ---------------------------------------------------------------- exhaustive sweeps

class LawFailure(NamedTuple):
    """A law (by its local number) failing on a partition and subset pair.  With an
    algebra, ``complete`` (None: no congruence) describes the partition, and so does
    ``note`` when the law reads the algebra."""

    law: str
    partition: Partition
    a: Subset
    b: Subset
    witness: tuple
    note: str | None
    complete: bool | None


class LawTally:
    __slots__ = ("holds", "fails", "not_applicable", "first_failure")

    def __init__(self):
        self.holds = self.fails = self.not_applicable = 0
        self.first_failure: LawFailure | None = None


class LawSweep:
    """``violations``: every failure of a law in a gated role, in sweep order (partition,
    A, B, suite order); ``gated``, ``measured``: a LawTally per law over the evaluations
    it had that role in; ``first_failure``: the first failure of any law."""

    def __init__(self, pairs: int):
        self.pairs, self.partitions, self.first_failure = pairs, 0, None
        self.violations, self.gated, self.measured = [], {}, {}


def sweep_laws(suite: str, partitions: Sequence[Partition], algebra: FiniteAlgebra | None = None) -> LawSweep:
    """Evaluate a suite's laws over every partition x subset pair.

    Partitions come in the given order, subset pairs in canonical order (A
    outer, B inner, each by cardinality then elements).  Without an
    algebra the laws that need one are not applicable.  A fault in the
    arguments raises ValidationError, its ``field`` naming the argument.
    """
    if suite not in SUITES:
        raise ValidationError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}", "suite")
    partitions = list(partitions)
    if not partitions:
        raise ValidationError("sweep_laws needs at least one partition", "partitions")
    n = partitions[0].n
    for i, p in enumerate(partitions):
        if p.n != n:
            raise ValidationError(f"partition {i} has carrier {p.n}, partition 0 has {n}", "partitions")
    if algebra is not None and algebra.n != n:
        raise ValidationError(f"algebra carrier {algebra.n} does not match partition carrier {n}", "algebra")
    return _sweep(_Carrier(n, partitions), suite, algebra, None, None, None)


def _sweep(carrier: _Carrier, suite: str, algebra: FiniteAlgebra | None,
           hunt: str | None, complete: bool | None, deadline: float | None) -> LawSweep:
    """The loop of sweep_laws and of every hunt, over the carrier's partitions.  With an algebra,
    each partition's congruence verdict is read from the product table.  A hunt evaluates the law
    numbered hunt alone and stops at its first failure; with an algebra it sweeps only the
    congruences, of completeness complete unless that is None, and checks deadline once per
    congruence.  Each law's table kernel runs once per partition, and the failures it returns
    are recorded in (A, B, suite) order."""
    members = [m for m in SUITES[suite] if hunt in (None, m[0])]
    n, order = carrier.n, carrier.order
    sweep = LawSweep(pairs=len(order) ** 2)
    P = None if algebra is None else _product_table(algebra)
    for i, p in enumerate(carrier.partitions):
        verdict = None if P is None else _congruence(P, algebra, carrier.classes[i], p.masks)
        if hunt is not None and P is not None and verdict is None:
            continue
        if deadline is not None and time.monotonic() >= deadline:
            raise SearchLimitError("time budget exceeded", count=sweep.partitions, reason="time")
        if complete is not None and verdict is not complete:
            continue
        sweep.partitions += 1
        ctx = carrier.context(i, P)
        active, found = [], []  # found: the failures to record, as (A, B, suite position, witness)
        for number, role, law in members:
            gated = role == GATED or (role == GATED_IF_COMPLETE and verdict is True)
            tally = (sweep.gated if gated else sweep.measured).setdefault(number, LawTally())
            if law.needs_algebra and P is None:
                tally.not_applicable += sweep.pairs
                continue
            failures = law.check(ctx, order, order)
            unmet = 0  # pairs not applicable for an unmet guard; a hunt reads only first failures
            if hunt is None and law.unmet and law.unmet[1] is None:
                test = law.unmet[0]
                unmet = sum(1 for a in order for b in order if test(ctx, a, b))
            tally.holds += sweep.pairs - len(failures) - unmet
            tally.fails += len(failures)
            tally.not_applicable += unmet
            if failures and (gated or tally.first_failure is None):  # a measured law records only its first
                found += [(j, k, len(active), w) for j, k, w in (failures if gated else failures[:1])]
            active.append((number, law, tally, gated))
        found.sort()  # no two failures share (A, B, suite position), so witnesses are not compared
        for j, k, pos, w in found:
            number, law, tally, gated = active[pos]
            failure = LawFailure(number, p, Subset._raw(n, order[j]), Subset._raw(n, order[k]), w,
                                 _NOTES[verdict] if law.needs_algebra else None, verdict)
            tally.first_failure = tally.first_failure or failure
            if gated:
                sweep.violations.append(failure)
            if sweep.first_failure is None:
                sweep.first_failure = failure
                if hunt is not None:
                    return sweep
    return sweep
