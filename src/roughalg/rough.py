"""The law registry of the approximation suites, and its views.

Each law of the suites 2-1, 3-1 and 3-2 is defined once, in ``LAWS``, as a term: clauses
``left <= right`` or ``left = right`` between set expressions over A, B, the approximations L
and U, the set product ``*``, union, intersection and complement, with an optional premise or
guard.  One evaluator reads every term over a space of (A, B) pairs, where a verdict is an int
with one bit per pair.  In a sweep's space, pair j*N + k is the j-th A and the k-th B of the N
subsets in canonical order, and a set is bit-sliced: the list, by element x, of the int of the
pairs at which x lies in it.  L(X) at x is the AND of X over the image of x, U(X) the OR, X*Y at
e the OR of X at y AND Y at z over the cells y*z = e, and ``left <= right`` fails on ``OR_x
left[x] & ~right[x]``, whose lowest bit is the first failure and ``bit_count`` the tally.  A
witness is read only for a failure that is recorded.  The single-pair views evaluate over the
space of one pair, where a set is its mask.
"""

import time
from dataclasses import dataclass
from functools import partial, reduce
from operator import and_, or_, xor
from typing import NamedTuple, Sequence

from .algebra import FiniteAlgebra, _low, product_mask
from .errors import ValidationError
from .generalized import _lower_mask, _upper_mask
from .relations import (Partition, SetValuedMap, _congruent, _incomplete, _related, is_congruence,
                        require_congruence)
from .sets import Subset, canonical_masks


# ---------------------------------------------------------------- terms

# slot -> (operation, first argument, second argument, reads L or U, slots of its subterms): the
# subterms of every law, each argument before its use.  Equal subterms share a slot, so an
# evaluation computes each once, and one that reads neither L nor U is the same for every map.
_OPS: list[tuple] = []
_SLOTS: dict[tuple, int] = {}  # (operation, first argument, second argument) -> slot


class _Set(int):
    """A set expression, as its slot in _OPS: a leaf (a for A, b for B, empty, carrier), L(x),
    U(x), x * y, or x | y, x & y and ~x, which are carrier ^ x."""

    def __new__(cls, op, x: "_Set | None" = None, y: "_Set | None" = None):
        if (op, x, y) not in _SLOTS:
            args = [_OPS[a] for a in (x, y) if a is not None]
            _SLOTS[op, x, y] = len(_OPS)
            _OPS.append((op, x, y, op in ("L", "U") or any(a[3] for a in args),
                         frozenset([len(_OPS)]).union(*(a[4] for a in args))))
        return int.__new__(cls, _SLOTS[op, x, y])

    __or__ = lambda self, other: _Set(or_, self, other)
    __and__ = lambda self, other: _Set(and_, self, other)
    __invert__ = lambda self: _Set(xor, _Set("carrier"), self)
    __mul__ = lambda self, other: _Set("*", self, other)


# ---------------------------------------------------------------- spaces, the evaluator, carriers

class _Pairs:
    """The pairs (order[j], order[k]) of N subset masks of {0..n-1}, pair j * N + k, where a set
    is bit-sliced and ``full`` is the int of every pair.  A map's images come ``_grouped``."""

    __slots__ = ("n", "full", "a", "b", "empty", "carrier")

    def __init__(self, n: int, order: Sequence[int]):
        N = len(order)  # each mask has fewer than N bits, so the masks shifted by j * N do not overlap
        self.n, self.full = n, (1 << N * N) - 1
        rows = self.full // ((1 << N) - 1)  # bit j * N, the first pair of each row j
        z = sum(m << j * N for j, m in enumerate(order))
        columns = [z >> x & rows for x in range(n)]  # bit j * N when x lies in order[j]
        self.a = [c * ((1 << N) - 1) for c in columns]
        self.b = [int(format(c, "b")[::N], 2) * rows for c in columns]
        self.empty, self.carrier = [0] * n, [self.full] * n

    def approximate(self, X, images, lower: bool):
        if images is None:
            return X
        get, full = X.__getitem__, self.full
        each = [reduce(and_, map(get, g), full) if lower else reduce(or_, map(get, g), 0) for g in images[0]]
        return [each[i] for i in images[1]]

    def product(self, X, Y, algebra: FiniteAlgebra):
        product = [0] * self.n
        for p, row in zip(X, algebra.table):
            if p:
                for q, e in zip(Y, row):
                    product[e] |= p & q
        return product

    def combine(self, op, X, Y):
        return list(map(op, X, Y))

    def fails(self, X, Y) -> int:
        """The pairs at which X - Y is nonempty."""
        return reduce(or_, map(and_, X, map(self.full.__xor__, Y)), 0)

    def least(self, X, Y, i: int) -> int | None:
        """The least element of X - Y at pair i."""
        return next((x for x, (p, q) in enumerate(zip(X, Y)) if (p & ~q) >> i & 1), None)


def _grouped(f: SetValuedMap) -> tuple[list[list[int]], list[int]] | None:
    """The distinct images of f as element lists and the position of each x's image among them;
    None for the identity map x -> {x}, under which L and U leave every set as it is."""
    if f.masks == tuple(1 << x for x in range(f.n_source)):
        return None
    distinct = list(dict.fromkeys(f.masks))
    return [[y for y in range(f.n_target) if m >> y & 1] for m in distinct], [*map(distinct.index, f.masks)]


class _Pair:
    """The space of the one pair (a, b): a set is its mask, a map's images are its image masks."""

    def __init__(self, n: int, a: int, b: int):
        self.n, self.a, self.b, self.empty, self.carrier, self.full = n, a, b, 0, (1 << n) - 1, 1

    approximate = lambda self, X, images, lower: (_lower_mask(images, X, self.carrier) if lower
                                                  else _upper_mask(images, X))
    product = staticmethod(lambda X, Y, algebra: product_mask(algebra, X, Y))
    combine = staticmethod(lambda op, X, Y: op(X, Y))
    fails = staticmethod(lambda X, Y: int(X & ~Y != 0))
    least = staticmethod(lambda X, Y, i: _low(X & ~Y) if X & ~Y else None)


def _evaluate(space, images, algebra: FiniteAlgebra | None, slots, v: dict) -> dict:
    """Add to v the set over space of each slot in slots, in increasing order (arguments first),
    under the map with these images and the product of algebra."""
    for s in slots:
        op, x, y = _OPS[s][:3]
        v[s] = (getattr(space, op) if x is None else space.approximate(v[x], images, op == "L") if y is None
                else space.product(v[x], v[y], algebra) if op == "*" else space.combine(op, v[x], v[y]))
    return v


def _verdict(law: "Law", space, v: dict) -> tuple[int, int]:
    """The pairs law fails on, and those its premise or guard does not hold on."""
    failed = 0
    for _, left, rel, right in law.clauses:
        failed |= space.fails(v[left], v[right]) | (rel == "=" and space.fails(v[right], v[left]))
    if law.premise:
        unmet = space.fails(v[law.premise[0]], v[law.premise[1]])
    else:
        unmet = space.full ^ space.fails(v[law.guard[0]], space.empty) if law.guard else 0
    return failed & ~unmet, unmet


def _witness(law: "Law", space, v: dict, i: int) -> tuple:
    """The witness of law at a pair i it fails on, from its first clause failing there."""
    for tag, left, rel, right in law.clauses:
        if (x := space.least(v[left], v[right], i)) is not None:
            return ("left-minus-right", x) if rel == "=" else tag if type(tag) is tuple else (
                (x,) if tag is None else (tag, x))
        if rel == "=" and (x := space.least(v[right], v[left], i)) is not None:
            return ("right-minus-left", x)


_NOTES = {None: "partition is not a congruence of the algebra",
          True: "partition is a complete congruence of the algebra",
          False: "partition is a congruence of the algebra, but not complete"}


class _Carrier:
    """What a sweep of partitions of {0..n-1} reads that no algebra changes: the partitions, their
    grouped images and ``_related`` relations, and the space of subset pairs in canonical
    ``order``.  A hunt builds one and sweeps every algebra over it."""

    __slots__ = ("n", "partitions", "related", "images", "order", "space")

    def __init__(self, n: int, partitions: list[Partition]):
        self.n, self.partitions, self.related = n, partitions, _related(partitions)
        self.images = [_grouped(p) for p in partitions]
        self.order = list(canonical_masks(n))
        self.space = _Pairs(n, self.order)

    def values(self, i: int, algebra: FiniteAlgebra | None, slots, v: dict) -> dict:
        """Add to v the sets of the slots for partition i; v holds those no partition changes."""
        return _evaluate(self.space, self.images[i], algebra, slots, v)


# ---------------------------------------------------------------- the registry

GATED, MEASURED, GATED_IF_COMPLETE = "gated", "measured", "gated-if-complete"


class Law(NamedTuple):
    """One law, for every suite it belongs to: ``suites`` maps a suite id to (local number,
    role).  GATED laws decide the verdict, MEASURED ones are counted, GATED_IF_COMPLETE ones
    are gated under complete congruences only.  The law holds where each of its ``clauses``
    (tag, left, rel, right) holds, rel being "<=" or "=".  The first clause that fails gives
    the witness, x being the least element of left - right: ("left-minus-right", x), or
    ("right-minus-left", x) when only right - left is nonempty, for an equality; for an
    inclusion (x,), (tag, x) with a string tag, or a tuple tag alone (``extremes``, whose
    sides are constants).  Where the ``premise`` (left, right, note) left <= right does not
    hold, the law holds vacuously; where the ``guard`` (set, note) is empty, it does not
    speak.  ``slots`` are the subterms it reads, in increasing order; it ``needs_algebra``
    exactly when one of them is a product.  Both are derived from the terms."""

    id: str
    description: str
    suites: dict[str, tuple[str, str]]
    clauses: tuple
    premise: tuple | None = None
    guard: tuple | None = None
    slots: tuple[int, ...] = ()
    needs_algebra: bool = False


def _laws() -> tuple[Law, ...]:
    A, B, empty, carrier = _Set("a"), _Set("b"), _Set("empty"), _Set("carrier")
    L, U = partial(_Set, "L"), partial(_Set, "U")
    return (
        Law("bounds", "lower(A) <= A <= upper(A)", {"2-1": ("1", GATED), "3-1": ("1", GATED)},
            (("lower-outside-set", L(A), "<=", A), ("set-outside-upper", A, "<=", U(A)))),
        Law("extremes", "extremes are fixed points", {"2-1": ("2", GATED)},
            ((("empty",), L(empty) | U(empty), "<=", empty),
             (("universe",), carrier, "<=", L(carrier) & U(carrier)))),
        Law("lower-join", "lower(A) | lower(B) <= lower(A | B)", {"2-1": ("3", GATED), "3-1": ("5", GATED)},
            ((None, L(A) | L(B), "<=", L(A | B)),)),
        Law("lower-meet", "lower(A & B) = lower(A) & lower(B)", {"2-1": ("4", GATED), "3-1": ("3", GATED)},
            ((None, L(A & B), "=", L(A) & L(B)),)),
        Law("upper-join", "upper(A | B) = upper(A) | upper(B)", {"2-1": ("5", GATED), "3-1": ("2", GATED)},
            ((None, U(A | B), "=", U(A) | U(B)),)),
        Law("upper-meet", "upper(A & B) <= upper(A) & upper(B)", {"2-1": ("6", GATED), "3-1": ("6", GATED)},
            ((None, U(A & B), "<=", U(A) & U(B)),)),
        Law("upper-dual", "upper(~A) = ~lower(A)", {"2-1": ("7", GATED)}, ((None, U(~A), "=", ~L(A)),)),
        Law("lower-dual", "lower(~A) = ~upper(A)", {"2-1": ("8", GATED)}, ((None, L(~A), "=", ~U(A)),)),
        Law("lower-fixed", "lower(A) is a fixed point of both operators", {"2-1": ("9", GATED)},
            ((None, L(L(A)), "=", L(A)), (None, U(L(A)), "=", L(A)))),
        Law("upper-fixed", "upper(A) is a fixed point of both operators", {"2-1": ("10", GATED)},
            ((None, U(U(A)), "=", U(A)), (None, L(U(A)), "=", U(A)))),
        Law("monotone", "A <= B implies monotone approximations", {"3-1": ("4", GATED)},
            (("lower", L(A), "<=", L(B)), ("upper", U(A), "<=", U(B))),
            premise=(A, B, "premise A <= B does not hold; vacuously true")),
        Law("product-upper", "upper(A)*upper(B) <= upper(A*B)", {"2-1": ("11a", MEASURED), "3-2": ("1", GATED)},
            ((None, U(A) * U(B), "<=", U(A * B)),)),
        Law("product-upper-converse", "upper(A*B) <= upper(A)*upper(B)", {"2-1": ("11b", MEASURED)},
            ((None, U(A * B), "<=", U(A) * U(B)),)),
        # 2-1 law 12 reads the inclusion as is; 3-2 law 2 speaks only when lower(A*B) is nonempty
        Law("product-lower-unguarded", "lower(A)*lower(B) <= lower(A*B)", {"2-1": ("12", MEASURED)},
            ((None, L(A) * L(B), "<=", L(A * B)),)),
        Law("product-lower", "lower(A)*lower(B) <= lower(A*B)", {"3-2": ("2", GATED_IF_COMPLETE)},
            ((None, L(A) * L(B), "<=", L(A * B)),),
            guard=(L(A * B), "guard not met: lower(A*B) is empty")),
    )


def _reads(law: Law) -> tuple[int, ...]:
    """The slots of the subterms law reads, in increasing order."""
    roots = [s for c in law.clauses for s in c[1::2]] + [*(law.premise or ())[:2], *(law.guard or ())[:1]]
    return tuple(sorted(frozenset().union(*(_OPS[s][4] for s in roots))))


LAWS: tuple[Law, ...] = tuple(law._replace(slots=slots, needs_algebra=any(_OPS[s][0] == "*" for s in slots))
                              for law in _laws() for slots in [_reads(law)])

# suite id -> [(local number, role, law)] in suite order; 11a and 11b sort between 10 and 12
SUITES: dict[str, list[tuple[str, str, Law]]] = {
    suite: sorted(((*law.suites[suite], law) for law in LAWS if suite in law.suites),
                  key=lambda m: (int(m[0].rstrip("ab")), m[0]))
    for suite in ("2-1", "3-1", "3-2")
}


def _plan(suite: str, hunt: str | None, algebra: bool) -> tuple:
    """A sweep's members (the law numbered hunt alone, unless None), the slots they read, those no
    map changes, the others, and whether a member is gated under complete congruences only."""
    members = [m for m in SUITES[suite] if hunt in (None, m[0])]
    slots = sorted({s for _, _, law in members if algebra or not law.needs_algebra for s in law.slots})
    return (members, slots, [s for s in slots if not _OPS[s][3]], [s for s in slots if _OPS[s][3]],
            any(role == GATED_IF_COMPLETE for _, role, _ in members))


_PLANS = {(suite, hunt, algebra): _plan(suite, hunt, algebra) for suite, members in SUITES.items()
          for hunt in (None, *(number for number, _, _ in members)) for algebra in (False, True)}


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


def _suite_view(suite: str, p: Partition, a: Subset, b: Subset, alg: FiniteAlgebra | None,
                by_id: bool = False) -> tuple[LawResult, ...]:
    """The suite's laws over the space of the one pair (a, b), labelled by their local numbers
    (by their ids with by_id).  ValidationError unless alg, a and b live on p's carrier."""
    if alg is not None and alg.n != p.n:
        raise ValidationError(f"algebra carrier {alg.n} does not match partition carrier {p.n}")
    for s in (a, b):
        if s.n != p.n:
            raise ValidationError(f"subset carrier {s.n} does not match partition carrier {p.n}")
    note = None if alg is None or by_id else _NOTES[  # one pair has no carrier to read this from
        _incomplete(alg.table, p) is None if is_congruence(alg, p).holds else None]
    space, results = _Pair(p.n, a.mask, b.mask), []
    v = _evaluate(space, p.masks, alg, _PLANS[suite, None, alg is not None][1], {})
    for number, _, law in SUITES[suite]:
        label, law_note = law.id if by_id else number, note if law.needs_algebra else None
        if law.needs_algebra and alg is None:
            results.append(LawResult(label, law.description, None, note="needs an algebra"))
            continue
        failed, unmet = _verdict(law, space, v)
        if unmet:  # the guard or the premise does not hold
            results.append(LawResult(label, law.description, None if law.guard else True,
                                     note=(law.guard or law.premise)[-1]))
        else:
            results.append(LawResult(label, law.description, not failed,
                                     _witness(law, space, v, 0) if failed else None, law_note))
    return tuple(results)


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
    return _suite_view("3-2", p, a, b, alg, by_id=True)


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


# A set of a sweep's pair space is n ints of 4**n bits: peak memory is near 0.85 GB at order 12.
SWEEP_ORDER_LIMIT = 12


def sweep_laws(suite: str, partitions: Sequence[Partition], algebra: FiniteAlgebra | None = None) -> LawSweep:
    """Evaluate a suite's laws over every partition x subset pair.

    Partitions come in the given order, subset pairs in canonical order (A
    outer, B inner, each by cardinality then elements).  Without an
    algebra the laws that need one are not applicable.  A fault in the
    arguments raises ValidationError, its ``field`` naming the argument,
    and so does a carrier above ``SWEEP_ORDER_LIMIT``.
    """
    if suite not in SUITES:
        raise ValidationError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}", "suite")
    partitions = list(partitions)
    if not partitions:
        raise ValidationError("sweep_laws needs at least one partition", "partitions")
    n = partitions[0].n
    if n > SWEEP_ORDER_LIMIT:
        raise ValidationError(f"exhaustive law sweep of order {n} exceeds its limit {SWEEP_ORDER_LIMIT}",
                              "partitions")
    for i, p in enumerate(partitions):
        if p.n != n:
            raise ValidationError(f"partition {i} has carrier {p.n}, partition 0 has {n}", "partitions")
    if algebra is not None and algebra.n != n:
        raise ValidationError(f"algebra carrier {algebra.n} does not match partition carrier {n}", "algebra")
    return _sweep(_Carrier(n, partitions), suite, algebra, None, None, None)


def _sweep(carrier: _Carrier, suite: str, algebra: FiniteAlgebra | None,
           hunt: str | None, complete: bool | None, deadline: float | None) -> LawSweep:
    """The loop of sweep_laws and of every hunt, over the carrier's partitions: each law once per
    partition, over every pair, its failures recorded in (A, B, suite) order.  With an algebra the
    carrier finds the congruences, and ``_incomplete`` reads a congruence's completeness at most
    once, where it is first needed: to filter, to gate or to describe a failure.  A hunt evaluates
    the law numbered hunt alone and stops at its first failure; with an algebra it sweeps only the
    congruences, of completeness complete unless that is None, raising TimeoutError when the
    deadline passed before one."""
    members, _, fixed, slots, gated_if_complete = _PLANS[suite, hunt, algebra is not None]
    n, order, space = carrier.n, carrier.order, carrier.space
    sweep = LawSweep(pairs=space.full.bit_length())
    table = None if algebra is None else algebra.table
    congruences = 0 if table is None else _congruent(table, carrier.related)
    v = _evaluate(space, None, algebra, fixed, {})
    gates = complete is not None or gated_if_complete
    for i, p in enumerate(carrier.partitions):
        congruent = congruences >> i & 1
        if hunt is not None and table is not None and not congruent:
            continue
        if deadline is not None and time.monotonic() >= deadline:
            raise TimeoutError
        verdict = _incomplete(table, p) is None if congruent and gates else None  # None also: not read yet
        if complete is not None and verdict is not complete:
            continue
        sweep.partitions += 1
        carrier.values(i, algebra, slots, v)
        active, found = [], []  # found: the failures to record, as (pair, suite position)
        for number, role, law in members:
            gated = role == GATED or (role == GATED_IF_COMPLETE and verdict is True)
            tallies = sweep.gated if gated else sweep.measured
            tally = tallies.get(number) or tallies.setdefault(number, LawTally())
            if law.needs_algebra and table is None:
                tally.not_applicable += sweep.pairs
                continue
            failed, unmet = _verdict(law, space, v)
            fails, skipped = failed.bit_count(), unmet.bit_count() if law.guard else 0  # unmet premises hold
            tally.holds += sweep.pairs - fails - skipped
            tally.fails += fails
            tally.not_applicable += skipped
            if failed and (gated or tally.first_failure is None):  # a measured law records only its first
                bits = bin(failed if gated else failed & -failed)[:1:-1]  # from bit 0 up
                found += [(k, len(active)) for k, bit in enumerate(bits) if bit == "1"]
            active.append((number, law, tally, gated))
        found.sort()
        if found and congruent and verdict is None:
            verdict = _incomplete(table, p) is None
        for k, pos in found:
            number, law, tally, gated = active[pos]
            failure = LawFailure(number, p, Subset._raw(n, order[k // len(order)]),
                                 Subset._raw(n, order[k % len(order)]), _witness(law, space, v, k),
                                 _NOTES[verdict] if law.needs_algebra else None, verdict)
            tally.first_failure = tally.first_failure or failure
            if gated:
                sweep.violations.append(failure)
            if sweep.first_failure is None:
                sweep.first_failure = failure
                if hunt is not None:
                    return sweep
    return sweep
