"""Command-line interface: file format, parsing, subcommands, reports.

Algebra files carry an optional ``algebra <name>`` line, then ``order <n>``
and ``zero <z>`` headers, then exactly n rows of n whitespace-separated
integers (row x lists x*0 .. x*(n-1)).  A line whose first non-blank
character is ``#`` is a comment.

Subsets are comma-separated elements ("0,1"; the empty string is the empty
set).  Partitions join classes with ``|`` ("0,1|2|3|4").  Set-valued maps
list ``x:image`` entries joined by ``;`` ("0:0;1:0,1;2:"), every source
element exactly once, an empty image written as an empty string.

Reports print as text by default or as canonical JSON with ``--format
json`` (or ROUGHALG_FORMAT=json; the flag wins).  Identical inputs yield
byte-identical JSON.  A JSON report splices the library's own records
(``AxiomReport``, ``IdentityReport``, ``IdealReport``, ``CheckResult``,
``LawResult``, ``Finding``): their field names are its keys, and ``run``
adds the ``command`` key and renders every value once.

Exit codes: 0 all checks passed / query answered; 1 a property is violated
or a counterexample was found; 2 bad input, bad usage, or exceeded limits.
"""

import argparse
import json
import os
import sys
from collections import namedtuple
from functools import partial

from .algebra import (
    AxiomId,
    FiniteAlgebra,
    LABEL_AXIOMS,
    Z_AXIOM_VARIANTS,
    check_axiom,
    classify,
    find_identities,
)
from .errors import ParseError, PreconditionError, RoughAlgError, SearchLimitError, ValidationError
from .generalized import is_strong_sv_morphism, is_sv_morphism, lower, upper
from .ideals import is_ideal, is_strong_ideal, enumerate_ideals
from .relations import (
    Partition,
    SetValuedMap,
    _grouped,
    _mismatch,
    is_congruence,
    is_equivalence,
    relation_from_ideal,
    require_congruence,
    to_partition,
)
from .rough import (
    MEASURED,
    SUITES,
    LawResult,
    LawTally,
    check_approx_laws,
    check_basic_laws,
    check_congruence_product_laws,
    sweep_laws,
)
from .search import (
    PARTITION_ORDER_LIMIT,
    SearchSpec,
    all_partitions,
    enumerate_algebras,
    enumerate_congruences,
    find_counterexample,
    TARGETS,
)
from .sets import Subset


# ---------------------------------------------------------------- parsing

def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, raw


def _int(token: str, context: str, line: int | None = None, column: int | None = None) -> int:
    """The integer a token spells: an optional '-', then ASCII digits; ``context`` ends the error message."""
    digits = token.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"bad integer {token!r}{context}", line=line, column=column)
    return int(token)


def _number(token: str, context: str) -> float:
    """The float a token spells in ASCII, with no '_' and no surrounding whitespace."""
    if token.isascii() and "_" not in token and token == token.strip():
        try:
            return float(token)
        except ValueError:
            pass
    raise ParseError(f"bad number {token!r}{context}")


def _header(lines: list, expect: str) -> tuple[int, int]:
    """Take the ``expect`` header line ("order <n>", "zero <z>") off lines: (line number, value)."""
    if not lines:
        raise ParseError(f"missing '{expect}' header")
    lineno, raw = lines.pop(0)
    parts, key = raw.split(), expect.split()[0]
    if parts[0] != key or len(parts) != 2:
        raise ParseError(f"expected '{expect}' header", line=lineno)
    return lineno, _int(parts[1], f" in {key} header", line=lineno)


def parse_algebra_file(text: str) -> tuple[str | None, FiniteAlgebra]:
    """Parse the algebra file format; returns (name, algebra)."""
    lines = list(_significant_lines(text))
    name = None
    if lines and lines[0][1].split()[0] == "algebra":
        lineno, raw = lines.pop(0)
        name = " ".join(raw.split()[1:])
        if not name:
            raise ParseError("'algebra' header needs a name", line=lineno)
    lineno, n = _header(lines, "order <n>")
    if n < 1:
        raise ParseError(f"order must be at least 1, got {n}", line=lineno)
    lineno, zero = _header(lines, "zero <z>")
    if not 0 <= zero < n:
        raise ParseError(f"zero element {zero} outside carrier 0..{n - 1}", line=lineno)

    rows = []
    for _ in range(n):
        if not lines:
            raise ParseError(f"expected {n} table rows, found {len(rows)}")
        lineno, raw = lines.pop(0)
        tokens = raw.split()
        if len(tokens) != n:
            raise ParseError(f"row has {len(tokens)} entries, expected {n}", line=lineno)
        row = []
        cursor = 0
        for tok in tokens:
            col = raw.index(tok, cursor) + 1
            cursor = col - 1 + len(tok)
            v = _int(tok, "", line=lineno, column=col)
            if not 0 <= v < n:
                raise ParseError(
                    f"entry {v} outside carrier 0..{n - 1}", line=lineno, column=col
                )
            row.append(v)
        rows.append(row)
    if lines:
        lineno, raw = lines[0]
        raise ParseError(f"unexpected content after table: {raw.strip()!r}", line=lineno)
    return name, FiniteAlgebra(n, rows, zero)


def parse_subset(text: str, n: int) -> Subset:
    text = text.strip()
    mask = 0
    for tok in text.split(",") if text else ():
        tok = tok.strip()
        if not tok:
            raise ParseError(f"malformed subset {text!r}: empty element between separators")
        e = _int(tok, f" in subset {text!r}")
        if not 0 <= e < n:
            raise ParseError(f"element {e} outside carrier 0..{n - 1}")
        if mask >> e & 1:
            raise ParseError(f"duplicate element {e} in subset {text!r}")
        mask |= 1 << e
    return Subset._raw(n, mask)


def parse_partition(text: str, n: int) -> Partition:
    classes = [parse_subset(part, n) for part in text.split("|")]
    try:
        return Partition(n, classes)
    except ValidationError as e:
        raise ParseError(f"bad partition {text!r}: {e}") from None


def parse_svmap(text: str, n_source: int, n_target: int) -> SetValuedMap:
    images: dict[int, Subset] = {}
    for entry in text.split(";"):
        if ":" not in entry:
            raise ParseError(f"malformed map entry {entry!r}: expected 'x:image'")
        left, _, right = entry.partition(":")
        x = _int(left.strip(), f" in map entry {entry!r}")
        if not 0 <= x < n_source:
            raise ParseError(f"source element {x} outside carrier 0..{n_source - 1}")
        if x in images:
            raise ParseError(f"source element {x} appears twice in map")
        images[x] = parse_subset(right, n_target)
    missing = [x for x in range(n_source) if x not in images]
    if missing:
        raise ParseError(f"map is not total: no image for {missing[0]}")
    return SetValuedMap(n_source, n_target, [images[x] for x in range(n_source)])


# ---------------------------------------------------------------- rendering

_CHECKMARK = "✓"
_CROSSMARK = "✗"


def _jsonable(v):
    """The JSON form of a library value: the ``default`` hook of ``json.dumps``, which encodes it."""
    if isinstance(v, Subset):
        return sorted(v)
    if isinstance(v, Partition):
        return [sorted(c) for c in v.classes]
    if isinstance(v, FiniteAlgebra):
        return {"order": v.n, "zero": v.zero, "rows": [list(r) for r in v.table]}
    if isinstance(v, AxiomId):
        return v.name
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


def _set_text(s: Subset) -> str:
    return "{" + ",".join(map(str, s)) + "}"


def _partition_text(p: Partition) -> str:
    return "|".join(",".join(map(str, c)) for c in p.classes)


def _witness_text(w) -> str:
    if isinstance(w, tuple) and all(isinstance(x, int) for x in w) and 1 <= len(w) <= 3:
        names = "xyz"[: len(w)]
        return ", ".join(f"{v}={val}" for v, val in zip(names, w))
    return str(w)


def _law_result_text(r: LawResult) -> str:
    mark = "n/a" if r.holds is None else (_CHECKMARK if r.holds else _CROSSMARK)
    line = f"law {r.law} ({r.description}): {mark}"
    if r.witness is not None:
        line += f"  witness: {_witness_text(r.witness)}"
    if r.note:
        line += f"  [{r.note}]"
    return line


# ---------------------------------------------------------------- helpers

def _load_algebra(path: str) -> FiniteAlgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in the path, or UnicodeDecodeError
        raise ParseError(f"cannot read {path}: {e}") from None
    return parse_algebra_file(text)[1]


_AXIOM_BY_NAME = {a.name.lower(): a for a in AxiomId}


def _parse_axiom_spec(spec: str) -> tuple[str | None, str, tuple[AxiomId, ...]]:
    """(label or None, display header, axioms) for a label name (b, bh, bo, z,
    z-relaxed) or a comma list like c1,c5, whose header is C1,C5."""
    key = spec.strip().lower()
    if key.upper() in LABEL_AXIOMS:
        return key.upper(), key.upper(), LABEL_AXIOMS[key.upper()]
    if key == "z-relaxed":
        return "Z(relaxed)", "Z(relaxed)", Z_AXIOM_VARIANTS["relaxed"]
    axioms = []
    for tok in key.split(","):
        tok = tok.strip()
        if tok not in _AXIOM_BY_NAME:
            raise ParseError(
                f"unknown axiom or label {tok!r}; use b, bh, bo, z, z-relaxed or c1..c7"
            )
        if _AXIOM_BY_NAME[tok] in axioms:
            raise ParseError(f"axiom {_AXIOM_BY_NAME[tok].name} is listed more than once")
        axioms.append(_AXIOM_BY_NAME[tok])
    return None, ",".join(a.name for a in axioms), tuple(axioms)


def _ideal_failures(r, zero: int) -> list[str]:
    """One line per failed condition of an IdealReport, with its first witness."""
    out = [] if r.has_zero else [f"zero element {zero} is missing"]
    if not r.pair_closed:
        out.append(f"membership closure fails at ({_witness_text(r.pair_witnesses[0])})")
    if r.triple_closed is False:
        out.append(f"strong closure fails at ({_witness_text(r.triple_witnesses[0])})")
    return out


def _partition_from_args(args, alg: FiniteAlgebra) -> tuple[Partition, dict]:
    """Resolve --partition / --ideal into a partition, with provenance info."""
    source, text = args.relation
    if source == "partition":
        return parse_partition(text, alg.n), {"relation_source": source}
    ideal_set = parse_subset(text, alg.n)
    ideal = is_ideal(alg, ideal_set, max_witnesses=1)
    if not ideal.is_ideal:
        reasons = "; ".join(_ideal_failures(ideal, alg.zero))
        raise PreconditionError(f"--ideal {_set_text(ideal_set)} is not an ideal: {reasons}", witness=ideal)
    try:
        partition = to_partition(relation_from_ideal(alg, ideal_set))
    except PreconditionError as e:
        r = e.witness
        raise PreconditionError(
            "the relation induced by the ideal is not an equivalence "
            f"(reflexivity {r.reflexivity}, symmetry {r.symmetry}, transitivity {r.transitivity})",
            witness=r,
        ) from None
    return partition, {"relation_source": source, "ideal": ideal_set}


# ---------------------------------------------------------------- subcommands
# Each takes the parsed arguments and the algebra of args.file (None for
# search) and returns its report and its text lines; run() adds the command
# name to the report and derives the exit code from its verdict.

def _cmd_check(args, alg) -> tuple[dict, list[str]]:
    label, header, axioms = _parse_axiom_spec(args.axioms)
    cap = None if args.max_witnesses is None else _int(args.max_witnesses, " in --max-witnesses")
    reports = [check_axiom(alg, a, max_witnesses=cap) for a in axioms]
    ok = all(r.holds for r in reports)
    marks = " ".join(
        r.axiom.name + " " + (_CHECKMARK if r.holds else _CROSSMARK) for r in reports
    )
    lines = [f"{header}: {marks}"]
    for r in reports:
        if not r.holds:
            shown = ", ".join(f"({_witness_text(w)})" for w in r.witnesses[:5])
            more = "" if len(r.witnesses) <= 5 else f" (+{len(r.witnesses) - 5} more)"
            lines.append(f"  {r.axiom.name} [{r.axiom.formula}] fails at {shown}{more}")
    report = {"axioms": axioms, "label": label, "verdict": "pass" if ok else "fail",
              "results": [{**vars(r), "formula": r.axiom.formula} for r in reports]}
    return report, lines


def _cmd_identities(args, alg) -> tuple[dict, list[str]]:
    ident = find_identities(alg)
    lines = [
        f"left identities: {_set_text(ident.left)}",
        f"right identities: {_set_text(ident.right)}",
        f"two-sided identities: {_set_text(ident.two_sided)}",
    ]
    return vars(ident), lines


def _cmd_ideals(args, alg) -> tuple[dict, list[str]]:
    found = enumerate_ideals(alg, strong=args.strong)
    kind = "strong ideals" if args.strong else "ideals"
    lines = [f"{len(found)} {kind}"] + [_set_text(s) for s in found]
    return {"strong": args.strong, "count": len(found), "ideals": found}, lines


def _cmd_congruences(args, alg) -> tuple[dict, list[str]]:
    congs = [(p, _mismatch(alg.table, p, _grouped(p)) is None) for p in enumerate_congruences(alg)]
    lines = [f"{len(congs)} congruences"]
    lines += [f"{_partition_text(p)}{'  (complete)' if complete else ''}" for p, complete in congs]
    report = {"count": len(congs),
              "congruences": [{"partition": p, "complete": complete} for p, complete in congs]}
    return report, lines


def _cmd_approx(args, alg) -> tuple[dict, list[str]]:
    partition, info = _partition_from_args(args, alg)
    a = parse_subset(args.set, alg.n)
    lo, hi = lower(partition, a), upper(partition, a)
    bd = hi - lo
    rough = bool(bd)
    every = not (args.lower or args.upper or args.boundary or args.pair)
    lines = [f"partition: {_partition_text(partition)}", f"set: {_set_text(a)}"]
    if every or args.lower or args.pair:
        lines.append(f"lower: {_set_text(lo)}")
    if every or args.upper or args.pair:
        lines.append(f"upper: {_set_text(hi)}")
    if every or args.boundary:
        lines.append(f"boundary: {_set_text(bd)}")
    lines.append(f"rough: {'yes' if rough else 'no (definable)'}")
    report = {**info, "partition": partition, "set": a,
              "lower": lo, "upper": hi, "boundary": bd, "rough": rough}
    return report, lines


def _verify_ideal(args, alg, strong=False) -> tuple[dict, list[str]]:
    subset = parse_subset(args.set, alg.n)
    r = is_strong_ideal(alg, subset) if strong else is_ideal(alg, subset)
    ok = bool(r.is_strong) if strong else r.is_ideal
    report = {**vars(r), "verdict": "pass" if ok else "fail"}
    report["set"] = report.pop("subset")
    lines = [f"claim {args.claim} on {_set_text(subset)}: {'holds' if ok else 'FAILS'}"]
    lines += ["  " + reason for reason in _ideal_failures(r, alg.zero)]
    return report, lines


def _verify_congruence(args, alg, complete=False) -> tuple[dict, list[str]]:
    p = parse_partition(args.relation[1], alg.n)
    cong = is_congruence(alg, p)
    report = {"partition": p, "congruence": cong.holds}
    if not cong.holds:
        report.update(witness=cong.witness, verdict="fail")
        return report, [f"claim {args.claim}: FAILS (not a congruence, witness {cong.witness})"]
    if not complete:
        report["verdict"] = "pass"
        return report, [f"claim {args.claim}: holds"]
    w = _mismatch(alg.table, p, _grouped(p))
    report.update(complete=w is None, witness=w, verdict="pass" if w is None else "fail")
    return report, [f"claim {args.claim}: " + ("holds" if w is None else f"FAILS (witness {w})")]


def _verify_equivalence(args, alg) -> tuple[dict, list[str]]:
    subset = parse_subset(args.set, alg.n)
    rel = relation_from_ideal(alg, subset)
    eq = is_equivalence(rel)
    report = {"set": subset, "pairs": [(x, y) for x in range(alg.n) for y in rel.image(x)],
              "equivalence": eq.holds,
              "reflexivity_witness": eq.reflexivity, "symmetry_witness": eq.symmetry,
              "transitivity_witness": eq.transitivity, "verdict": "pass" if eq.holds else "fail"}
    return report, [f"relation induced by {_set_text(subset)} is "
                    + ("an equivalence" if eq.holds else "NOT an equivalence")]


def _verify_prop(args, alg) -> tuple[dict, list[str]]:
    partition, info = _partition_from_args(args, alg)
    a = parse_subset(args.set, alg.n)
    b = parse_subset(args.set2, alg.n) if args.set2 is not None else a
    report = {**info, "partition": partition, "set_a": a, "set_b": b}
    if args.prop == "3-2":
        results = check_congruence_product_laws(alg, partition, a, b)
        complete = report["congruence_complete"] = _mismatch(alg.table, partition, _grouped(partition)) is None
    elif args.prop == "2-1":
        results = check_approx_laws(partition, a, b, alg)
    else:
        results = check_basic_laws(partition, a, b)
    # a single pair fails on any law its suite does not only measure
    ok = not any(r.holds is False and role != MEASURED
                 for r, (_, role, _) in zip(results, SUITES[args.prop]))
    lines = [_law_result_text(r) for r in results]
    if args.prop == "3-2":
        lines.append(f"congruence complete: {'yes' if complete else 'no'}")
    report.update(results=[vars(r) for r in results], verdict="pass" if ok else "fail")
    return report, lines


def _failure_json(f, witness) -> dict:
    return {"partition": f.partition, "a": f.a, "b": f.b, "witness": witness}


def _verify_prop_exhaustive(args, alg) -> tuple[dict, list[str]]:
    report = {"exhaustive": True}
    if args.relation:
        partitions = [_partition_from_args(args, alg)[0]]
        if args.prop == "3-2":
            require_congruence(alg, partitions[0])
    elif alg.n > PARTITION_ORDER_LIMIT:
        raise ValidationError(f"exhaustive partition sweep is limited to order <= {PARTITION_ORDER_LIMIT}; "
                              "pass --partition to pin one")
    else:
        partitions = enumerate_congruences(alg) if args.prop == "3-2" else all_partitions(alg.n)
    sweep = sweep_laws(args.prop, partitions, alg)
    if args.prop == "3-2":
        part1, part2 = ([_failure_json(f, f.witness[0]) for f in sweep.violations if f.law == law]
                        for law in ("1", "2"))
        found = sweep.measured.get("2", LawTally())
        first = found.first_failure
        ok = not sweep.violations
        lines = [
            f"congruences: {sweep.partitions}, subset pairs: {sweep.pairs}",
            f"upper product law violations: {len(part1)}",
            f"lower product law violations under complete congruences: {len(part2)}",
            f"lower product law findings under non-complete congruences: "
            f"{found.fails} (informational)",
        ]
        report.update(
            congruences=sweep.partitions, pairs=sweep.pairs,
            guard_skips=sweep.gated.get("2", LawTally()).not_applicable + found.not_applicable,
            part1_violations=part1, part2_complete_violations=part2,
            part2_incomplete_findings={
                "count": found.fails, "first": first and _failure_json(first, first.witness[0])},
        )
    else:
        violations = [{**_failure_json(f, f.witness), "law": f.law} for f in sweep.violations]
        ok = not violations
        lines = [
            f"partitions: {sweep.partitions}, subset pairs: {sweep.pairs}, "
            f"evaluations: {sweep.partitions * sweep.pairs}",
            f"gated law violations: {len(violations)}",
        ]
        measurements = {}
        for law, t in sweep.measured.items():
            f = t.first_failure
            measurements[law] = {
                "holds": t.holds, "fails": t.fails, "not_applicable": t.not_applicable,
                "first_failure": f and {**_failure_json(f, f.witness), "note": f.note}}
            lines.append(f"measured law {law}: holds {t.holds}, fails {t.fails} "
                         f"(observational, not gated)")
        report.update(partitions=sweep.partitions, pairs=sweep.pairs, violations=violations,
                      measurements=measurements)
    lines.append(f"verdict: {'pass' if ok else 'fail'}")
    report["verdict"] = "pass" if ok else "fail"
    return report, lines


# verify's modes: each claim (with its aliases), --prop on one pair and --prop
# --exhaustive -> its handler, the flags it requires (one of each group) and
# the flags it may also read.  It reads no other --partition/--ideal/--set/--set2.
_VerifyMode = namedtuple("_VerifyMode", "handler required optional")
_IDEAL = _VerifyMode(_verify_ideal, [("--set",)], ())
_VERIFY_MODES = {
    "--claim ideal": _IDEAL,
    "--claim bh-ideal": _IDEAL,
    "--claim bo-ideal": _IDEAL,
    "--claim z-ideal": _IDEAL,
    "--claim strong-ideal": _VerifyMode(partial(_verify_ideal, strong=True), [("--set",)], ()),
    "--claim congruence": _VerifyMode(_verify_congruence, [("--partition",)], ()),
    "--claim complete-congruence": _VerifyMode(partial(_verify_congruence, complete=True),
                                               [("--partition",)], ()),
    "--claim equivalence-from-ideal": _VerifyMode(_verify_equivalence, [("--set",)], ()),
    "--prop": _VerifyMode(_verify_prop, [("--partition", "--ideal"), ("--set",)], ("--set2",)),
    "--prop --exhaustive": _VerifyMode(_verify_prop_exhaustive, [], ("--partition", "--ideal")),
}


def _cmd_verify(args, alg) -> tuple[dict, list[str]]:
    if args.claim and args.exhaustive:
        raise ParseError("--exhaustive applies to --prop only")
    name = f"--claim {args.claim}" if args.claim else "--prop --exhaustive" if args.exhaustive else "--prop"
    handler, required, optional = _VERIFY_MODES[name]
    given = {f"--{args.relation[0]}"} if args.relation else set()
    given |= {flag for flag in ("--set", "--set2") if getattr(args, flag[2:]) is not None}
    unread = sorted(given.difference(optional, *required))
    if unread:
        raise ParseError(f"{name} does not read {', '.join(unread)}")
    for group in required:
        if given.isdisjoint(group):
            raise ParseError(f"{name} requires {' or '.join(group)}")
    report, lines = handler(args, alg)
    if args.claim:
        return {"claim": args.claim, "algebra_labels": sorted(classify(alg)), **report}, lines
    return {"prop": args.prop, **report}, lines


def _cmd_search(args, _) -> tuple[dict, list[str]]:
    if args.find and (args.count or args.emit):
        raise ParseError("--find cannot be combined with --count or --emit")
    _, header, axioms = _parse_axiom_spec(args.axioms)
    order = _int(args.order, " in --order")
    spec = SearchSpec(
        n=order,
        axiom_set=axioms,
        model_cap=None if args.limit is None else _int(args.limit, " in --limit"),
        time_budget=None if args.budget is None else _number(args.budget, " in --budget"),
    )

    if args.find:
        finding = find_counterexample(spec, args.find)
        report = {"order": order, "axioms": axioms, "target": args.find,
                  "finding": finding and vars(finding), "verdict": "fail" if finding else "pass"}
        if finding is None:
            return report, [f"no counterexample to {args.find} over {header} of order {order}"]
        lines = [
            f"counterexample to {args.find} found",
            f"  algebra: {_jsonable(finding.algebra)}",
            f"  partition: {_partition_text(finding.partition)}",
            f"  A={_set_text(finding.a)} B={_set_text(finding.b)}",
            f"  witness: {finding.witness}" + (f"  [{finding.note}]" if finding.note else ""),
        ]
        return report, lines

    models: list[FiniteAlgebra] = []
    count = enumerate_algebras(spec, models.append if args.emit else None)
    report = {"order": order, "axioms": axioms, "count": count}
    lines = [f"models of order {order} satisfying {header}: {count}"]
    if args.emit:
        report["models"] = models
        for m in models:
            lines.append("  " + "; ".join(" ".join(map(str, row)) for row in m.table))
    return report, lines


def _cmd_morphism(args, source) -> tuple[dict, list[str]]:
    target = _load_algebra(args.target) if args.target else source
    f = parse_svmap(args.map, source.n, target.n)
    check = is_strong_sv_morphism if args.strong else is_sv_morphism
    r = check(f, source, target)
    labels = {"source_labels": sorted(classify(source)), "target_labels": sorted(classify(target))}
    kind = "strong set-valued morphism" if args.strong else "set-valued morphism"
    lines = [
        f"{kind}: {'yes' if r.holds else 'NO'}",
        f"source labels: {labels['source_labels']}",
        f"target labels: {labels['target_labels']}",
    ]
    if r.witness is not None:
        lines.append(f"witness: {r.witness}")
    report = {"strong": args.strong, **vars(r), **labels,
              "verdict": "pass" if r.holds else "fail"}
    return report, lines


# ---------------------------------------------------------------- entry point

_FORMATS = ("text", "json")


def _add_relation_args(p: argparse.ArgumentParser, required: bool) -> None:
    # either flag stores (its name, its text) as args.relation
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--partition", dest="relation", metavar="PARTITION",
                       type=lambda text: ("partition", text))
    group.add_argument("--ideal", dest="relation", metavar="IDEAL", type=lambda text: ("ideal", text),
                       help="derive the partition from an ideal-induced relation")


def _file_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")


def _check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--axioms", required=True, help="b, bh, bo, z, z-relaxed, or c1,c2,...")
    p.add_argument("--max-witnesses")


def _ideals_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--strong", action="store_true")


def _approx_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    _add_relation_args(p, required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--lower", action="store_true")
    p.add_argument("--upper", action="store_true")
    p.add_argument("--boundary", action="store_true")
    p.add_argument("--pair", action="store_true")


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--prop", choices=tuple(SUITES), help="law suite id")
    claims = [mode.removeprefix("--claim ") for mode in _VERIFY_MODES if mode.startswith("--claim ")]
    group.add_argument("--claim", choices=claims, help="named claim")
    p.add_argument("--exhaustive", action="store_true", help="sweep every partition and pair (--prop only)")
    _add_relation_args(p, required=False)
    p.add_argument("--set")
    p.add_argument("--set2")


def _search_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", required=True)
    p.add_argument("--axioms", required=True)
    p.add_argument("--count", action="store_true", help="count models (default action)")
    p.add_argument("--find", help=f"hunt a counterexample to a property id ({', '.join(sorted(TARGETS))})")
    p.add_argument("--limit", help="model cap")
    p.add_argument("--budget", help="time budget in seconds")
    p.add_argument("--emit", action="store_true", help="include the models in the report")


def _morphism_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--map", required=True)
    p.add_argument("--target", help="target algebra file (defaults to the source)")
    p.add_argument("--strong", action="store_true")


# subcommand -> its help line, its handler, and what adds its arguments after --format
_COMMANDS = {
    "check": ("check an axiom system against a table", _cmd_check, _check_args),
    "identities": ("list identity elements", _cmd_identities, _file_args),
    "ideals": ("enumerate (strong) ideals", _cmd_ideals, _ideals_args),
    "congruences": ("enumerate congruence partitions", _cmd_congruences, _file_args),
    "approx": ("lower/upper approximations of a set", _cmd_approx, _approx_args),
    "verify": ("verify law suites or named claims", _cmd_verify, _verify_args),
    "search": ("model counting and counterexample hunts", _cmd_search, _search_args),
    "morphism": ("set-valued morphism checks", _cmd_morphism, _morphism_args),
}


def _command_parser(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """p with the arguments of subcommand name: --format, then the command's own."""
    p.add_argument("--format", choices=_FORMATS, help="report format (env ROUGHALG_FORMAT; the flag wins)")
    _COMMANDS[name][2](p)
    return p


def _top_parser() -> argparse.ArgumentParser:
    """The parser of ``roughalg`` with all eight subcommands: it parses an argv that does not start
    with a subcommand, and it reports argparse's top-level errors; its help lists each command."""
    parser = argparse.ArgumentParser(prog="roughalg", description="Axiom, ideal, congruence and "
                                     "rough-approximation checks for small finite algebras.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        _command_parser(sub.add_parser(name, help=help_line), name)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``_top_parser().parse_args(argv)``, but an argv that starts with a subcommand is parsed by its
    parser alone, as the top-level subparsers action would; leftovers fail as in ``parse_args``."""
    if not argv or argv[0] not in _COMMANDS:
        return _top_parser().parse_args(argv)
    parser = _command_parser(argparse.ArgumentParser(prog=f"roughalg {argv[0]}"), argv[0])
    args, extras = parser.parse_known_args(argv[1:])
    if extras:
        _top_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


# the library fields a flag sets, to name the flag in an error message
_FLAG_OF_FIELD = {"n": "--order", "model_cap": "--limit", "time_budget": "--budget",
                  "max_witnesses": "--max-witnesses"}


def run(argv=None) -> int:
    """Parse arguments, load the algebra file, run one subcommand, print its report.

    One parser per call: the top-level one only for its help and errors, such as a bad
    ROUGHALG_FORMAT.  Returns 2 on any RoughAlgError, else 1 exactly when the verdict is "fail".
    """
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    fmt = args.format or os.environ.get("ROUGHALG_FORMAT", "text")
    if fmt not in _FORMATS:
        _top_parser().error(f"ROUGHALG_FORMAT: invalid choice: {fmt!r} (choose from 'text', 'json')")
    try:
        report, lines = _COMMANDS[args.command][1](args, _load_algebra(args.file) if "file" in args else None)
    except RoughAlgError as e:
        flag = _FLAG_OF_FIELD.get(getattr(e, "field", None))
        where = f"{flag}: " if flag else ""
        extra = f" (explored prefix count: {e.count})" if isinstance(e, SearchLimitError) else ""
        print(f"error: {where}{e}{extra}", file=sys.stderr)
        return 2
    if fmt == "json":
        print(json.dumps({"command": args.command, **report}, default=_jsonable, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 1 if report.get("verdict") == "fail" else 0


if __name__ == "__main__":
    sys.exit(run())
