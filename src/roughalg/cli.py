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
(``AxiomReport``, ``IdentityReport``, ``IdealReport``, ``MorphismReport``):
their field names are its keys, and ``run`` renders every value once.

Exit codes: 0 all checks passed / query answered; 1 a property is violated
or a counterexample was found; 2 bad input, bad usage, or exceeded limits.
"""

import argparse
import json
import os
import sys

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
from .generalized import SetValuedMap, is_strong_sv_morphism, is_sv_morphism
from .ideals import is_ideal, is_strong_ideal, enumerate_ideals
from .relations import (
    Partition,
    _completeness,
    is_congruence,
    is_equivalence,
    relation_from_ideal,
    require_congruence,
    to_partition,
)
from .rough import (
    MEASURED,
    SUITES,
    ApproximationSpace,
    LawResult,
    LawTally,
    check_approx_laws,
    check_basic_laws,
    check_congruence_product_laws,
    lower,
    sweep_laws,
    upper,
)
from .search import (
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


def parse_algebra_file(text: str) -> tuple[str | None, FiniteAlgebra]:
    """Parse the algebra file format; returns (name, algebra)."""
    lines = list(_significant_lines(text))
    pos = 0

    def take(expect: str):
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(f"missing '{expect}' header")
        return lines[pos]

    name = None
    lineno, raw = take("order <n>")
    parts = raw.split()
    if parts[0] == "algebra":
        if len(parts) < 2:
            raise ParseError("'algebra' header needs a name", line=lineno)
        name = " ".join(parts[1:])
        pos += 1
        lineno, raw = take("order <n>")
        parts = raw.split()
    if parts[0] != "order" or len(parts) != 2:
        raise ParseError("expected 'order <n>' header", line=lineno)
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(f"bad integer {parts[1]!r} in order header", line=lineno) from None
    if n < 1:
        raise ParseError(f"order must be at least 1, got {n}", line=lineno)
    pos += 1

    lineno, raw = take("zero <z>")
    parts = raw.split()
    if parts[0] != "zero" or len(parts) != 2:
        raise ParseError("expected 'zero <z>' header", line=lineno)
    try:
        zero = int(parts[1])
    except ValueError:
        raise ParseError(f"bad integer {parts[1]!r} in zero header", line=lineno) from None
    if not 0 <= zero < n:
        raise ParseError(f"zero element {zero} outside carrier 0..{n - 1}", line=lineno)
    pos += 1

    rows = []
    for _ in range(n):
        if pos >= len(lines):
            raise ParseError(f"expected {n} table rows, found {len(rows)}")
        lineno, raw = lines[pos]
        tokens = raw.split()
        if len(tokens) != n:
            raise ParseError(f"row has {len(tokens)} entries, expected {n}", line=lineno)
        row = []
        cursor = 0
        for tok in tokens:
            col = raw.index(tok, cursor) + 1
            cursor = col - 1 + len(tok)
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(f"bad integer {tok!r}", line=lineno, column=col) from None
            if not 0 <= v < n:
                raise ParseError(
                    f"entry {v} outside carrier 0..{n - 1}", line=lineno, column=col
                )
            row.append(v)
        rows.append(row)
        pos += 1
    if pos < len(lines):
        lineno, raw = lines[pos]
        raise ParseError(f"unexpected content after table: {raw.strip()!r}", line=lineno)
    return name, FiniteAlgebra(n, rows, zero)


def parse_algebra(text: str) -> FiniteAlgebra:
    return parse_algebra_file(text)[1]


def render_algebra(alg: FiniteAlgebra, name: str | None = None) -> str:
    out = []
    if name:
        out.append(f"algebra {name}")
    out.append(f"order {alg.n}")
    out.append(f"zero {alg.zero}")
    for row in alg.table:
        out.append(" ".join(map(str, row)))
    return "\n".join(out) + "\n"


def parse_subset(text: str, n: int) -> Subset:
    text = text.strip()
    if not text:
        return Subset.empty(n)
    elems = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise ParseError(f"malformed subset {text!r}: empty element between separators")
        try:
            e = int(tok)
        except ValueError:
            raise ParseError(f"bad integer {tok!r} in subset {text!r}") from None
        if not 0 <= e < n:
            raise ParseError(f"element {e} outside carrier 0..{n - 1}")
        if e in elems:
            raise ParseError(f"duplicate element {e} in subset {text!r}")
        elems.append(e)
    return Subset.from_elements(n, elems)


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
        left = left.strip()
        try:
            x = int(left)
        except ValueError:
            raise ParseError(f"bad integer {left!r} in map entry {entry!r}") from None
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
    if isinstance(v, Subset):
        return sorted(v)
    if isinstance(v, Partition):
        return [sorted(c) for c in v.classes]
    if isinstance(v, FiniteAlgebra):
        return {"order": v.n, "zero": v.zero, "rows": [list(r) for r in v.table]}
    if isinstance(v, AxiomId):
        return v.name
    if isinstance(v, (frozenset, set)):
        return sorted(_jsonable(x) for x in v)
    if isinstance(v, (tuple, list)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def _set_text(s: Subset) -> str:
    return "{" + ",".join(map(str, s)) + "}"


def _partition_text(p: Partition) -> str:
    return "|".join(",".join(map(str, c)) for c in p.classes)


def _witness_text(w) -> str:
    if w is None:
        return ""
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

def _load_algebra(path: str) -> tuple[str | None, FiniteAlgebra]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    return parse_algebra_file(text)


_AXIOM_BY_NAME = {a.name.lower(): a for a in AxiomId}


def _parse_axiom_spec(spec: str) -> tuple[str | None, tuple[AxiomId, ...]]:
    """A label name (b, bh, bo, z, z-relaxed) or a comma list like c1,c5."""
    key = spec.strip().lower()
    if key in ("b", "bh", "bo", "z"):
        return key.upper(), LABEL_AXIOMS[key.upper()]
    if key in ("z-relaxed", "zrelaxed"):
        return "Z(relaxed)", Z_AXIOM_VARIANTS["relaxed"]
    axioms = []
    for tok in key.split(","):
        tok = tok.strip()
        if tok not in _AXIOM_BY_NAME:
            raise ParseError(
                f"unknown axiom or label {tok!r}; use b, bh, bo, z, z-relaxed or c1..c7"
            )
        axioms.append(_AXIOM_BY_NAME[tok])
    if not axioms:
        raise ParseError("empty axiom spec")
    return None, tuple(axioms)


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
    if args.partition:
        return parse_partition(args.partition, alg.n), {"relation_source": "partition"}
    ideal_set = parse_subset(args.ideal, alg.n)
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
    return partition, {"relation_source": "ideal", "ideal": ideal_set}


# ---------------------------------------------------------------- subcommands

def _cmd_check(args) -> tuple[int, dict, list[str]]:
    _, alg = _load_algebra(args.file)
    label, axioms = _parse_axiom_spec(args.axioms)
    reports = [check_axiom(alg, a, max_witnesses=args.max_witnesses) for a in axioms]
    ok = all(r.holds for r in reports)
    header = label if label else ",".join(a.name for a in axioms)
    marks = " ".join(
        r.axiom.name + " " + (_CHECKMARK if r.holds else _CROSSMARK) for r in reports
    )
    lines = [f"{header}: {marks}"]
    for r in reports:
        if not r.holds:
            shown = ", ".join(f"({_witness_text(w)})" for w in r.witnesses[:5])
            more = "" if len(r.witnesses) <= 5 else f" (+{len(r.witnesses) - 5} more)"
            lines.append(f"  {r.axiom.name} [{r.axiom.formula}] fails at {shown}{more}")
    report = {
        "command": "check", "axioms": axioms, "label": label,
        "results": [{**vars(r), "formula": r.axiom.formula} for r in reports],
        "verdict": "pass" if ok else "fail",
    }
    return (0 if ok else 1), report, lines


def _cmd_identities(args) -> tuple[int, dict, list[str]]:
    _, alg = _load_algebra(args.file)
    ident = find_identities(alg)
    lines = [
        f"left identities: {_set_text(ident.left)}",
        f"right identities: {_set_text(ident.right)}",
        f"two-sided identities: {_set_text(ident.two_sided)}",
    ]
    return 0, {"command": "identities", **vars(ident)}, lines


def _cmd_ideals(args) -> tuple[int, dict, list[str]]:
    _, alg = _load_algebra(args.file)
    found = enumerate_ideals(alg, strong=args.strong)
    kind = "strong ideals" if args.strong else "ideals"
    lines = [f"{len(found)} {kind}"] + [_set_text(s) for s in found]
    return 0, {"command": "ideals", "strong": args.strong, "count": len(found), "ideals": found}, lines


def _cmd_congruences(args) -> tuple[int, dict, list[str]]:
    _, alg = _load_algebra(args.file)
    congs = [(p, _completeness(alg, p).holds) for p in enumerate_congruences(alg)]
    lines = [f"{len(congs)} congruences"]
    lines += [f"{_partition_text(p)}{'  (complete)' if complete else ''}" for p, complete in congs]
    report = {"command": "congruences", "count": len(congs),
              "congruences": [{"partition": p, "complete": complete} for p, complete in congs]}
    return 0, report, lines


def _cmd_approx(args) -> tuple[int, dict, list[str]]:
    _, alg = _load_algebra(args.file)
    partition, info = _partition_from_args(args, alg)
    space = ApproximationSpace(partition=partition, algebra=alg)
    a = parse_subset(args.set, alg.n)
    lo, hi = lower(space, a), upper(space, a)
    bd = hi - lo
    rough = bool(bd)
    wanted = [k for k in ("lower", "upper", "boundary", "pair") if getattr(args, k)]
    if not wanted:
        wanted = ["lower", "upper", "boundary", "pair"]
    lines = [f"partition: {_partition_text(partition)}", f"set: {_set_text(a)}"]
    if "lower" in wanted or "pair" in wanted:
        lines.append(f"lower: {_set_text(lo)}")
    if "upper" in wanted or "pair" in wanted:
        lines.append(f"upper: {_set_text(hi)}")
    if "boundary" in wanted:
        lines.append(f"boundary: {_set_text(bd)}")
    lines.append(f"rough: {'yes' if rough else 'no (definable)'}")
    report = {"command": "approx", **info, "partition": partition, "set": a,
              "lower": lo, "upper": hi, "boundary": bd, "rough": rough}
    return 0, report, lines


_CLAIM_ALIASES = {
    "ideal": "ideal",
    "bh-ideal": "ideal",
    "bo-ideal": "ideal",
    "z-ideal": "ideal",
    "strong-ideal": "strong-ideal",
    "congruence": "congruence",
    "complete-congruence": "complete-congruence",
    "equivalence-from-ideal": "equivalence-from-ideal",
}


def _cmd_verify_claim(args, alg: FiniteAlgebra) -> tuple[int, dict, list[str]]:
    claim = _CLAIM_ALIASES.get(args.claim)
    if claim is None:
        raise ParseError(
            f"unknown claim {args.claim!r}; known: {', '.join(sorted(_CLAIM_ALIASES))}"
        )
    labels = sorted(classify(alg))
    report: dict = {"command": "verify", "claim": args.claim, "algebra_labels": labels}
    lines: list[str] = []

    if claim in ("ideal", "strong-ideal"):
        if args.set is None:
            raise ParseError(f"--claim {args.claim} requires --set")
        subset = parse_subset(args.set, alg.n)
        r = is_strong_ideal(alg, subset) if claim == "strong-ideal" else is_ideal(alg, subset)
        ok = bool(r.is_strong) if claim == "strong-ideal" else r.is_ideal
        fields = {**vars(r)}
        fields["set"] = fields.pop("subset")
        report.update(fields, verdict="pass" if ok else "fail")
        lines.append(f"claim {args.claim} on {_set_text(subset)}: {'holds' if ok else 'FAILS'}")
        lines += ["  " + reason for reason in _ideal_failures(r, alg.zero)]
        return (0 if ok else 1), report, lines

    if claim in ("congruence", "complete-congruence"):
        if args.partition is None:
            raise ParseError(f"--claim {args.claim} requires --partition")
        p = parse_partition(args.partition, alg.n)
        cong = is_congruence(alg, p)
        report["partition"] = p
        if not cong.holds:
            report.update(congruence=False, witness=cong.witness, verdict="fail")
            lines.append(f"claim {args.claim}: FAILS (not a congruence, witness {cong.witness})")
            return 1, report, lines
        if claim == "congruence":
            report.update(congruence=True, verdict="pass")
            lines.append("claim congruence: holds")
            return 0, report, lines
        comp = _completeness(alg, p)
        report.update(congruence=True, complete=comp.holds, witness=comp.witness,
                      verdict="pass" if comp.holds else "fail")
        lines.append(
            "claim complete-congruence: holds" if comp.holds
            else f"claim complete-congruence: FAILS (witness {comp.witness})"
        )
        return (0 if comp.holds else 1), report, lines

    # equivalence-from-ideal
    if args.set is None:
        raise ParseError("--claim equivalence-from-ideal requires --set")
    subset = parse_subset(args.set, alg.n)
    rel = relation_from_ideal(alg, subset)
    eq = is_equivalence(rel)
    report.update({"set": subset, "pairs": rel.pairs, "equivalence": eq.holds,
                   "reflexivity_witness": eq.reflexivity, "symmetry_witness": eq.symmetry,
                   "transitivity_witness": eq.transitivity, "verdict": "pass" if eq.holds else "fail"})
    lines.append(
        f"relation induced by {_set_text(subset)} is "
        + ("an equivalence" if eq.holds else "NOT an equivalence")
    )
    return (0 if eq.holds else 1), report, lines


def _cmd_verify_prop_single(args, alg) -> tuple[int, dict, list[str]]:
    partition, info = _partition_from_args(args, alg)
    a = parse_subset(args.set, alg.n) if args.set is not None else Subset.empty(alg.n)
    b = parse_subset(args.set2, alg.n) if args.set2 is not None else a
    report = {"command": "verify", "prop": args.prop, **info, "partition": partition,
              "set_a": a, "set_b": b}
    if args.prop == "3-2":
        prod = check_congruence_product_laws(alg, partition, a, b)
        results = [prod.upper_inclusion, prod.lower_inclusion]
        report["congruence_complete"] = prod.congruence_complete
    else:
        check = check_approx_laws if args.prop == "2-1" else check_basic_laws
        results = check(ApproximationSpace(partition=partition, algebra=alg), a, b)
    # a single pair fails on any law its suite does not only measure
    ok = not any(r.holds is False and role != MEASURED
                 for r, (_, role, _) in zip(results, SUITES[args.prop]))
    lines = [_law_result_text(r) for r in results]
    if args.prop == "3-2":
        lines.append(f"congruence complete: {'yes' if prod.congruence_complete else 'no'}")
    report.update(results=[vars(r) for r in results], verdict="pass" if ok else "fail")
    return (0 if ok else 1), report, lines


def _failure_json(f, witness) -> dict:
    return {"partition": f.partition, "a": f.a, "b": f.b, "witness": witness}


def _cmd_verify_prop_exhaustive(args, alg) -> tuple[int, dict, list[str]]:
    report = {"command": "verify", "prop": args.prop, "exhaustive": True}
    if args.partition or args.ideal:
        partitions = [_partition_from_args(args, alg)[0]]
        if args.prop == "3-2":
            require_congruence(alg, partitions[0])
    elif alg.n > 6:
        raise ValidationError("exhaustive partition sweep is limited to order <= 6; "
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
    return (0 if ok else 1), report, lines


def _cmd_verify(args) -> tuple[int, dict, list[str]]:
    _, alg = _load_algebra(args.file)
    if args.claim:
        return _cmd_verify_claim(args, alg)
    if not args.prop:
        raise ParseError("verify needs either --prop or --claim")
    if args.exhaustive:
        return _cmd_verify_prop_exhaustive(args, alg)
    if not args.partition and not args.ideal:
        raise ParseError("verify --prop without --exhaustive needs --partition or --ideal")
    if args.set is None:
        raise ParseError("verify --prop without --exhaustive needs --set (and optionally --set2)")
    return _cmd_verify_prop_single(args, alg)


def _cmd_search(args) -> tuple[int, dict, list[str]]:
    label, axioms = _parse_axiom_spec(args.axioms)
    try:
        spec = SearchSpec(
            n=args.order,
            axiom_set=axioms,
            target=args.find,
            model_cap=args.limit,
            time_budget=args.budget,
        )
    except ValidationError as e:  # only the two limits are checked here
        flag = {"model_cap": "--limit", "time_budget": "--budget"}[e.field]
        raise ValidationError(f"{flag}: {e}", e.field) from None
    header = label if label else ",".join(a.name for a in axioms)

    if args.find:
        finding = find_counterexample(spec)
        report = {"command": "search", "order": args.order, "axioms": axioms,
                  "target": args.find, "finding": None, "verdict": "pass"}
        if finding is None:
            return 0, report, [f"no counterexample to {args.find} over {header} of order {args.order}"]
        report.update(verdict="fail", finding={
            "algebra": finding.algebra, "partition": finding.partition, "a": finding.subset_a,
            "b": finding.subset_b, "witness": finding.witness, "note": finding.note})
        lines = [
            f"counterexample to {args.find} found",
            f"  algebra: {_jsonable(finding.algebra)}",
            f"  partition: {_partition_text(finding.partition) if finding.partition else '-'}",
            f"  A={_set_text(finding.subset_a)} B={_set_text(finding.subset_b)}",
            f"  witness: {finding.witness}" + (f"  [{finding.note}]" if finding.note else ""),
        ]
        return 1, report, lines

    models: list[FiniteAlgebra] = []
    sink = models.append if args.emit else None
    count = enumerate_algebras(spec, sink)
    report = {"command": "search", "order": args.order, "axioms": axioms, "count": count}
    lines = [f"models of order {args.order} satisfying {header}: {count}"]
    if args.emit:
        report["models"] = models
        for m in models:
            lines.append("  " + "; ".join(" ".join(map(str, row)) for row in m.table))
    return 0, report, lines


def _cmd_morphism(args) -> tuple[int, dict, list[str]]:
    _, source = _load_algebra(args.file)
    target = source
    if args.target:
        _, target = _load_algebra(args.target)
    f = parse_svmap(args.map, source.n, target.n)
    check = is_strong_sv_morphism if args.strong else is_sv_morphism
    r = check(f, source, target)
    kind = "strong set-valued morphism" if args.strong else "set-valued morphism"
    lines = [
        f"{kind}: {'yes' if r.holds else 'NO'}",
        f"source labels: {sorted(r.source_labels)}",
        f"target labels: {sorted(r.target_labels)}",
    ]
    if r.witness is not None:
        lines.append(f"witness: {r.witness}")
    report = {"command": "morphism", "strong": args.strong, **vars(r),
              "verdict": "pass" if r.holds else "fail"}
    return (0 if r.holds else 1), report, lines


# ---------------------------------------------------------------- entry point

_FORMATS = ("text", "json")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=_FORMATS,
        help="report format (env ROUGHALG_FORMAT; the flag wins)",
    )

    parser = argparse.ArgumentParser(
        prog="roughalg",
        description="Axiom, ideal, congruence and rough-approximation checks "
                    "for small finite algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="check an axiom system against a table")
    p.add_argument("file")
    p.add_argument("--axioms", required=True, help="b, bh, bo, z, z-relaxed, or c1,c2,...")
    p.add_argument("--max-witnesses", type=int, default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("identities", parents=[common], help="list identity elements")
    p.add_argument("file")
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("ideals", parents=[common], help="enumerate (strong) ideals")
    p.add_argument("file")
    p.add_argument("--strong", action="store_true")
    p.set_defaults(func=_cmd_ideals)

    p = sub.add_parser("congruences", parents=[common], help="enumerate congruence partitions")
    p.add_argument("file")
    p.set_defaults(func=_cmd_congruences)

    p = sub.add_parser("approx", parents=[common], help="lower/upper approximations of a set")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--partition")
    group.add_argument("--ideal", help="derive the partition from an ideal-induced relation")
    p.add_argument("--set", required=True)
    p.add_argument("--lower", action="store_true")
    p.add_argument("--upper", action="store_true")
    p.add_argument("--boundary", action="store_true")
    p.add_argument("--pair", action="store_true")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("verify", parents=[common], help="verify law suites or named claims")
    p.add_argument("file")
    p.add_argument("--prop", choices=("2-1", "3-1", "3-2"), help="law suite id")
    p.add_argument("--claim", help="named claim: ideal (aliases bh-/bo-/z-ideal), "
                                   "strong-ideal, congruence, complete-congruence, "
                                   "equivalence-from-ideal")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--partition")
    p.add_argument("--ideal", help="derive the partition from an ideal-induced relation")
    p.add_argument("--set")
    p.add_argument("--set2")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", parents=[common], help="model counting and counterexample hunts")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--axioms", required=True)
    p.add_argument("--count", action="store_true", help="count models (default action)")
    p.add_argument("--find", help=f"hunt a counterexample to a property id "
                                  f"({', '.join(sorted(TARGETS))})")
    p.add_argument("--limit", type=int, default=None, help="model cap")
    p.add_argument("--budget", type=float, default=None, help="time budget in seconds")
    p.add_argument("--emit", action="store_true", help="include the models in the report")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("morphism", parents=[common], help="set-valued morphism checks")
    p.add_argument("file")
    p.add_argument("--map", required=True)
    p.add_argument("--target", help="target algebra file (defaults to the source)")
    p.add_argument("--strong", action="store_true")
    p.set_defaults(func=_cmd_morphism)

    return parser


def run(argv=None) -> int:
    """Parse arguments, run one subcommand, print its report."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    fmt = args.format or os.environ.get("ROUGHALG_FORMAT", "text")
    if fmt not in _FORMATS:
        parser.error(f"ROUGHALG_FORMAT: invalid choice: {fmt!r} (choose from 'text', 'json')")
    try:
        code, report, lines = args.func(args)
    except RoughAlgError as e:
        extra = f" (explored prefix count: {e.count})" if isinstance(e, SearchLimitError) else ""
        print(f"error: {e}{extra}", file=sys.stderr)
        return 2
    if fmt == "json":
        print(json.dumps(_jsonable(report), indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
