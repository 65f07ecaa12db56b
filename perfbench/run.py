"""roughalg benchmark: time to verdict on model search, law sweeps, hunts and CLI queries.

From the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload, single-threaded, as a closed loop with one
caller: each call starts when the previous one has returned.  The loop
repeats the workload's fixed mix of calls (one pass) until ``--seconds``
are used, with at least two passes.  Each call runs on the package under
test and, right next to it, on a frozen reference copy of the package
(``reference/roughalg_ref``); the time metrics are ratios of the two, which
cancels the drift in machine speed that raw times on a shared host carry.
Every verdict is checked, outside the timed region, against an answer
derived without roughalg (see naive.py, derive.py and queries.py), and
repeats of a call under one seed must print identical bytes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes the same
untraced passes, then one traced pass of the package under test with span
wrappers installed (see tracer.py), and prints the per-layer metrics.  The
line before the last is a JSON record of the run (Python version, cores,
git commit, seed, sample counts, raw times, failures, untraceable
bindings); the last line is the result.  README.md describes the
workloads and metrics.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH), str(BENCH / "reference")]

SETUP_REPEATS = 7
MIN_PASSES = 2
FRESH_IMPORTS = 8
FIXTURES = ("b4", "bo5", "bh4", "z4")
WORKLOADS = ("search-count", "law-sweep", "hunt", "cli-queries")
SEARCH_CASES = (("b6", "B", 6, True), ("bo7", "BO", 7, True), ("bh4", "BH", 4, False))
SWEEP_CASES = (("bo5", "2-1"), ("bo5", "3-1"), ("bo5", "3-2"), ("s3", "3-2"), ("s3-pinned", "2-1"))
HUNT_CASES = ((3, "bh", "2-1:11a"), (4, "bh", "2-1:12"), (4, "b", "2-1:12"),
              (3, "bh", "3-2:1"), (3, "bh", "3-2:2-complete"))


# ---------------------------------------------------------------- inputs

def read_alg(path):
    """(table, zero) from an algebra file; independent of roughalg's parser."""
    rows, zero = [], 0
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#") or parts[0] in ("algebra", "order"):
            continue
        if parts[0] == "zero":
            zero = int(parts[1])
        else:
            rows.append([int(v) for v in parts])
    return rows, zero


def write_alg(path, name, table, zero):
    body = "\n".join(" ".join(map(str, row)) for row in table)
    Path(path).write_text(f"algebra {name}\norder {len(table)}\nzero {zero}\n{body}\n")


def relabel(table, zero, perm):
    """The isomorphic copy under x -> perm[x]; the zero element follows."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return out, perm[zero]


def check_s3(oracles, table):
    """The order-6 input must be a B model whose group x.y = x*(0*y) is not abelian."""
    for axiom in ("C1", "C2", "C3"):
        if oracles.axiom_violations(table, axiom):
            raise SystemExit(f"data/s3.alg violates {axiom}")
    dot = lambda x, y: table[x][table[0][y]]  # noqa: E731
    if all(dot(x, y) == dot(y, x) for x in range(6) for y in range(6)):
        raise SystemExit("data/s3.alg is abelian")


# package name -> the directory it must be imported from
PACKAGES = {"roughalg": ROOT / "src", "roughalg_ref": BENCH / "reference"}


def import_package(name):
    """Import a package afresh, with its cli module (set-up cost included)."""
    for mod in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[mod]
    pkg = importlib.import_module(name)
    importlib.import_module(name + ".cli")
    if not Path(pkg.__file__).resolve().is_relative_to(PACKAGES[name]):
        raise SystemExit(f"{name} imported from {pkg.__file__}, not from {PACKAGES[name]}")
    return pkg


class Case:
    """One call of a workload's mix.

    ``call(pkg)`` binds the call to a package and returns ``run``, with
    ``run() -> (exit code, output text)``; ``bind`` makes ``run`` for the
    package under test and ``ref_run`` for the frozen reference.
    """

    def __init__(self, name, call, check, work=1):
        self.name, self.call, self.check, self.work = name, call, check, work

    def bind(self, pkg, ref_pkg):
        self.run, self.ref_run = self.call(pkg), self.call(ref_pkg)


def cli_call(argv):
    def bind(pkg):
        def run():
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = pkg.cli.run(argv)
            except SystemExit as e:
                code = e.code
            return code, out.getvalue()
        return run
    return bind


# ---------------------------------------------------------------- workloads

def search_cases(oracles, inputs):
    answers = inputs["answers"]["search"]
    axioms = {"B": ("C1", "C2", "C3"), "BO": ("C1", "C2", "C5"), "BH": ("C1", "C2", "C4")}

    def make(name, label, n, keep):
        def call(pkg):
            def run():
                models = []
                spec = pkg.search.SearchSpec(n=n, axiom_set=pkg.algebra.LABEL_AXIOMS[label], max_order=8)
                count = pkg.search.enumerate_algebras(spec, models.append if keep else None)
                rows = [[list(r) for r in m.table] for m in models]
                return 0, json.dumps({"count": count, "models": rows})
            return run

        def check(code, out):
            doc = json.loads(out)
            if doc["count"] != answers[name]:
                return f"count {doc['count']}, closed form gives {answers[name]}"
            rows = doc["models"]
            if keep and len(rows) != doc["count"]:
                return f"{len(rows)} models emitted for count {doc['count']}"
            if any(a >= b for a, b in zip(rows, rows[1:])):
                return "models not in strictly increasing lexicographic order"
            for t in rows:
                for axiom in axioms[label]:
                    if oracles.axiom_violations(t, axiom):
                        return f"emitted model violates {axiom}: {t}"
            return None

        return Case(name, call, check, work=answers[name])

    return [make(*c) for c in SEARCH_CASES]


def sweep_cases(naive, inputs):
    """The law-sweep mix.

    The two bo5 sweeps over all 52 partitions run as one pinned-partition
    sweep per partition (``--partition P``): the same evaluations through
    the same exhaustive loop, in calls of about 0.1 s instead of one of
    several seconds, so each call's time pairs closely with its reference
    call.  Their counts are summed over the 52 calls and compared with the
    pinned totals.
    """
    answers = inputs["answers"]
    cases = []
    for name, prop in SWEEP_CASES:
        table_name = "s3" if name.startswith("s3") else name
        table, _ = inputs["relabelled"][table_name]
        argv = ["verify", inputs["paths"][table_name], "--prop", prop, "--exhaustive",
                "--format", "json"]
        want = answers["sweep"][f"{name}:{prop}"]
        if name == "s3-pinned":
            perm = inputs["perms"]["s3"]
            classes = sorted(sorted(perm[x] for x in c) for c in answers["s3_partition"])
            argv += ["--partition", partition_text(classes)]
        if prop == "3-2" or name == "s3-pinned":
            case = Case(f"{name}:{prop}", cli_call(argv), None)
            case.check = sweep_checker(naive, case, table, prop, want, None)
            cases.append(case)
            continue
        group = {"size": want["partitions"], "seen": 0, "partitions": 0, "violations": 0,
                 "measurements": {}}
        for i, classes in enumerate(naive.partitions_rgs(len(table))):
            case = Case(f"{name}:{prop}:p{i:02d}", cli_call(argv + ["--partition", partition_text(classes)]), None)
            case.check = sweep_checker(naive, case, table, prop, want, group)
            cases.append(case)
    return cases


def partition_text(classes):
    return "|".join(",".join(map(str, c)) for c in classes)


def sweep_checker(naive, case, table, prop, want, group):
    """Checker of one sweep call; ``group`` sums a split sweep's counts."""
    def check(code, out):
        doc = json.loads(out)
        if prop == "3-2":
            got = {"congruences": doc["congruences"], "pairs": doc["pairs"],
                   "guard_skips": doc["guard_skips"], "part1": len(doc["part1_violations"]),
                   "part2_complete": len(doc["part2_complete_violations"]),
                   "part2_incomplete": doc["part2_incomplete_findings"]["count"],
                   "verdict": doc["verdict"]}
            case.work = doc["congruences"] * doc["pairs"]
            first = doc["part2_incomplete_findings"]["first"]
            if first is not None:
                cls = first["partition"]
                low = naive.product_laws(table, cls, frozenset(first["a"]), frozenset(first["b"]))[1]
                if low != first["witness"]:
                    return f"incomplete finding {first} is not a lower-law failure"
        else:
            got = {"partitions": doc["partitions"], "pairs": doc["pairs"],
                   "violations": len(doc["violations"]), "verdict": doc["verdict"],
                   "measurements": {law: {k: v for k, v in m.items() if k != "first_failure"}
                                    for law, m in doc["measurements"].items()}}
            case.work = doc["partitions"] * doc["pairs"]
            for law, m in doc["measurements"].items():
                ff = m["first_failure"]
                if (ff is None) != (m["fails"] == 0):
                    return f"law {law}: first_failure {ff} with {m['fails']} failures"
                if ff is None:
                    continue
                cls = ff["partition"]
                w = naive.approx_law_witness(table, cls, law, frozenset(ff["a"]), frozenset(ff["b"]))
                if [w] != ff["witness"] or ff["note"] != naive.congruence_note(table, cls):
                    return f"law {law}: first failure {ff} does not re-check (oracle witness {w})"
        verdict = got["verdict"]
        if code != (0 if verdict == "pass" else 1):
            return f"exit {code} with verdict {verdict}"
        if group is not None:
            if got["verdict"] != ("pass" if not got["violations"] else "fail"):
                return f"verdict {verdict} with {got['violations']} violations"
            group["seen"] += 1
            group["partitions"] += got["partitions"]
            group["violations"] += got["violations"]
            for law, m in got["measurements"].items():
                total = group["measurements"].setdefault(law, dict.fromkeys(m, 0))
                for k, v in m.items():
                    total[k] += v
            if group["seen"] < group["size"]:
                return None
            got = {"partitions": group["partitions"], "pairs": got["pairs"],
                   "violations": group["violations"], "measurements": group["measurements"],
                   "verdict": "pass" if not group["violations"] else "fail"}
        if got != want:
            return f"counts {got}, expected {want}"
        return None
    return check


def hunt_cases(naive, oracles, inputs):
    cases = []
    for n, label, target in HUNT_CASES:
        name = f"{label}{n}:{target}"
        want = inputs["answers"]["hunt"][name]
        argv = ["search", "--order", str(n), "--axioms", label, "--find", target, "--format", "json"]

        def check(code, out, want=want, label=label, target=target):
            doc = json.loads(out)
            finding = want["finding"]
            if code != (0 if finding is None else 1) or doc["finding"] != finding:
                return f"exit {code}, finding {doc['finding']}; expected {finding}"
            if finding is not None:
                t, cls = finding["algebra"]["rows"], finding["partition"]
                if any(oracles.axiom_violations(t, a) for a in naive.AXIOMS[label]):
                    return "found algebra violates its axioms"
                if not oracles.is_congruence(t, cls):
                    return "found partition is not a congruence"
                kind, law, _ = naive.HUNT_LAWS[target]
                w = naive.hunt_witness(t, cls, kind, law, frozenset(finding["a"]), frozenset(finding["b"]))
                if [w] != finding["witness"]:
                    return f"witness {finding['witness']} does not re-check (oracle {w})"
            return None

        cases.append(Case(name, cli_call(argv), check, work=want["evaluations"]))
    return cases


def query_cases(queries, inputs, rng):
    facts = []
    for name in FIXTURES + ("s3",):
        facts.append(queries.TableFacts(inputs["original_paths"][name], *inputs["original"][name]))
        facts.append(queries.TableFacts(inputs["paths"][name], *inputs["relabelled"][name]))
    cases = []
    for i, (kind, argv, fmt, checker) in enumerate(queries.build_mix(rng, facts)):
        cases.append(Case(f"q{i:03d}-{kind}", cli_call(argv),
                          lambda code, out, checker=checker, fmt=fmt: checker(code, out, fmt)))
    return cases


def setup(workload, seed, package):
    """Everything before the first timed call; returns the cases, unbound.

    The package is imported here only so that its import cost counts;
    the runner binds the cases to fresh imports before each pass.
    """
    import_package(package)
    naive = importlib.import_module("naive")
    oracles = importlib.import_module("oracles")
    queries = importlib.import_module("queries")
    rng = random.Random(seed)
    original = {name: read_alg(ROOT / "tables" / f"{name}.alg") for name in FIXTURES}
    original["s3"] = read_alg(BENCH / "data" / "s3.alg")
    check_s3(oracles, original["s3"][0])
    WORK.mkdir(exist_ok=True)
    inputs = {"original": original, "relabelled": {}, "perms": {}, "paths": {},
              "original_paths": {name: str(ROOT / "tables" / f"{name}.alg") for name in FIXTURES},
              "answers": json.loads((BENCH / "data" / "answers.json").read_text())}
    inputs["original_paths"]["s3"] = str(BENCH / "data" / "s3.alg")
    for name, (table, zero) in original.items():
        perm = rng.sample(range(len(table)), len(table))
        inputs["perms"][name] = perm
        inputs["relabelled"][name] = relabel(table, zero, perm)
        path = WORK / f"{name}-seed{seed}.alg"
        write_alg(path, f"{name}-seed{seed}", *inputs["relabelled"][name])
        inputs["paths"][name] = str(path)
    if workload == "search-count":
        cases = search_cases(oracles, inputs)
    elif workload == "law-sweep":
        cases = sweep_cases(naive, inputs)
    elif workload == "hunt":
        cases = hunt_cases(naive, oracles, inputs)
    else:
        cases = query_cases(queries, inputs, rng)
    return cases


# ---------------------------------------------------------------- measurement

def caches(pkg, tracer):
    """functools caches in the package, which keep entries across calls."""
    found = {}
    for mod in tracer.package_modules(pkg):
        for v in vars(mod).values():
            if hasattr(v, "cache_clear") and hasattr(v, "cache_info"):
                found[id(v)] = v
    return list(found.values())


class Runner:
    """Runs passes over the cases and keeps times, digests and failures.

    Each call of the mix runs twice in a pass, once on the package under
    test and once on the frozen reference, back to back and in alternating
    order, so both see the same machine state.  Before each pass both
    packages are imported afresh: where a package's objects land in memory
    changes its speed by a few per cent for the life of an import, and fresh
    imports average that out inside a run instead of leaving it to differ
    between runs.
    """

    def __init__(self, cases, tracer_mod):
        self.cases, self.tracer_mod = cases, tracer_mod
        self.imports = []
        self.problems = []
        self.times = {c.name: [] for c in cases}
        self.ref_times = {c.name: [] for c in cases}
        self.pass_times, self.ref_pass_times = [], []
        self.digests = {}
        self.verdicts = {}
        self.attempted = self.failed = 0
        self.errors = []
        self.cache_misses = 0

    def _timed(self, run):
        # a CLI user starts with empty caches on every call
        for c in self.lru:
            c.cache_clear()
        t0 = time.perf_counter()
        try:
            code, out = run()
        except Exception as e:  # a raising case is a failed case, not a crash
            code, out = None, f"raised {e!r}"
        return time.perf_counter() - t0, code, out

    def _fail(self, name, err):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{name}: {err}")

    def one(self, case, digests):
        """Time and check one call on the package under test."""
        dt, code, out = self._timed(case.run)
        self.cache_misses += sum(c.cache_info().misses for c in self.lru)
        self.attempted += 1
        digest = hashlib.sha256(out.encode()).hexdigest()
        digests[case.name] = digest
        if case.name not in self.verdicts:
            if code is None or code == 2:
                err = out if code is None else "exit 2"
            else:
                try:
                    err = case.check(code, out)
                except (ValueError, KeyError, TypeError) as e:
                    err = f"unreadable output: {e!r}"
            self.verdicts[case.name] = (digest, err)
        else:
            first_digest, err = self.verdicts[case.name]
            if digest != first_digest:
                err = "output bytes differ between repeats"
        if err:
            self._fail(case.name, err)
        return dt

    def reference(self, case):
        """Time one call on the reference; only a crash or exit 2 is checked."""
        dt, code, out = self._timed(case.ref_run)
        if code not in (0, 1):
            self._fail(case.name, f"reference run: {out if code is None else f'exit {code}'}")
        return dt

    def fresh(self):
        """Bind the cases to a fresh pair of imports, outside any timing.

        After FRESH_IMPORTS pairs the runner cycles through those, so that
        memory use does not grow with the number of passes.
        """
        t = self.tracer_mod
        if len(self.imports) < FRESH_IMPORTS:
            self.imports.append((import_package("roughalg"), import_package("roughalg_ref")))
            gc.collect()
        self.pkg, ref = self.imports[len(self.pass_times) % FRESH_IMPORTS]
        for case in self.cases:
            case.bind(self.pkg, ref)
        self.lru = caches(self.pkg, t) + caches(ref, t)
        # the tracer's patch points, which an untraced pass must leave alone
        self.snapshot = t.bindings(self.pkg, self.pkg.sets.Subset)

    def passes(self, seconds):
        deadline = time.perf_counter() + seconds
        while True:
            self.fresh()
            ref_first = len(self.pass_times) % 2 == 1
            total = ref_total = 0.0
            for case in self.cases:
                if ref_first:
                    r = self.reference(case)
                dt = self.one(case, self.digests)
                if not ref_first:
                    r = self.reference(case)
                self.times[case.name].append(dt)
                self.ref_times[case.name].append(r)
                total += dt
                ref_total += r
            self.pass_times.append(total)
            self.ref_pass_times.append(ref_total)
            self.problems += [f"untraced run used a patched binding: {b}" for b in
                              self.tracer_mod.changed_bindings(self.pkg, self.pkg.sets.Subset, self.snapshot)]
            if (len(self.pass_times) >= MIN_PASSES and time.perf_counter()
                    + statistics.median(self.pass_times) + statistics.median(self.ref_pass_times) > deadline):
                return


def p99(values):
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def end_to_end(runner, setup_ratio, nominal_setup_s):
    # each case's median ratio over its back-to-back pairs, so one pair
    # caught by a change in machine speed cannot move it
    ratio = {name: statistics.median(c / r for c, r in zip(runner.times[name], runner.ref_times[name]))
             for name in runner.times}
    weight = {name: statistics.median(ts) for name, ts in runner.ref_times.items()}
    return {
        "setup_s": (nominal_setup_s * setup_ratio, "s"),
        "run_rel": (sum(weight[n] * ratio[n] for n in ratio) / sum(weight.values()), "ratio"),
        "call_rel_geomean": (statistics.geometric_mean(ratio.values()), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def raw_times(runner):
    """Unnormalised figures for the record line; they follow the machine's speed."""
    cur = [t for ts in runner.times.values() for t in ts]
    work = sum(c.work * len(runner.times[c.name]) for c in runner.cases)
    return {
        "run_s": statistics.median(runner.pass_times),
        "ref_run_s": statistics.median(runner.ref_pass_times),
        "work_per_s": work / sum(cur),
        "call_p50_ms": 1000 * statistics.median(cur),
        "call_p99_ms": 1000 * p99(cur),
    }


def traced_pass(runner, tracer_mod, workload):
    """One pass with the tracer installed; returns (per-layer metrics, problems)."""
    pkg = runner.pkg
    subset_cls = pkg.sets.Subset
    problems = []
    tracer = tracer_mod.Tracer()
    digests = {}
    runner.cache_misses = 0
    tracer.install(pkg, subset_cls)
    try:
        traced_s = sum(runner.one(case, digests) for case in runner.cases)
    finally:
        tracer.uninstall()
    problems += [f"binding not restored after the traced run: {b}"
                 for b in tracer_mod.changed_bindings(pkg, subset_cls, runner.snapshot)]
    problems += [f"{name}: traced output bytes differ from untraced"
                 for name, d in digests.items() if d != runner.digests[name]]
    tracer.dump(WORK / f"spans-{workload}")
    per_name, layers = tracer.aggregate()

    def get(name, key):
        return per_name.get(name, {}).get(key, 0)

    def per_call(name, scale):
        calls = get(name, "calls")
        return scale * get(name, "s") / calls if calls else 0.0

    evals = sum(c.work for c in runner.cases)
    cong_calls = get("relations.is_congruence", "calls")
    suite_calls = sum(get(f"rough.{f}", "calls") for f in
                      ("check_approx_laws", "check_basic_laws", "check_congruence_product_laws"))
    cli_calls = get("cli.run", "calls")
    untraced = {name: statistics.median(ts) for name, ts in runner.times.items()}
    m = {
        "search.b6_s": (untraced.get("b6", 0.0), "s"),
        "search.bo7_s": (untraced.get("bo7", 0.0), "s"),
        "search.bh4_s": (untraced.get("bh4", 0.0), "s"),
        "search.dfs_self_s": (get("search.enumerate_algebras", "self_s"), "s"),
        "search.models": (tracer.counts["models"], "count"),
        "search.enumerate_congruences.calls": (get("search.enumerate_congruences", "calls"), "count"),
        "search.enumerate_congruences.s": (get("search.enumerate_congruences", "s"), "s"),
        "relations.is_congruence.calls": (cong_calls, "count"),
        "relations.is_congruence.s": (get("relations.is_congruence", "s"), "s"),
        "relations.is_complete_congruence.calls": (get("relations.is_complete_congruence", "calls"), "count"),
        "relations.is_complete_congruence.s": (get("relations.is_complete_congruence", "s"), "s"),
        "relations.congruence_yield": (tracer.counts["is_congruence_true"] / cong_calls if cong_calls else 0.0, "ratio"),
        "relations.cached_calls": (runner.cache_misses, "count"),
        "rough.check_approx_laws.calls": (get("rough.check_approx_laws", "calls"), "count"),
        "rough.check_approx_laws.us_per_call": (per_call("rough.check_approx_laws", 1e6), "us"),
        "rough.check_basic_laws.us_per_call": (per_call("rough.check_basic_laws", 1e6), "us"),
        "rough.lower.calls": (get("rough.lower", "calls"), "count"),
        "rough.upper.calls": (get("rough.upper", "calls"), "count"),
        "rough.laws_per_pair": (tracer.counts["law_results"] / suite_calls if suite_calls else 0.0, "count"),
        "algebra.product_set.calls": (get("algebra.product_set", "calls"), "count"),
        "algebra.product_set.ns_per_call": (per_call("algebra.product_set", 1e9), "ns"),
        "algebra.check_axiom.s": (get("algebra.check_axiom", "s"), "s"),
        "sets.subset_allocs": (tracer.counts["subset_allocs"], "count"),
        "sets.subset_allocs_per_eval": (tracer.counts["subset_allocs"] / evals, "count"),
        "cli.self_ms_per_query": (1000 * layers["cli"] / cli_calls if cli_calls else 0.0, "ms"),
        "cli.sweep_self_s": (layers["cli"], "s"),
        "ideals.s": (layers["ideals"], "s"),
        "generalized.s": (layers["generalized"], "s"),
    }
    for layer in ("search", "relations", "rough", "algebra"):
        m[f"{layer}.self_s"] = (layers[layer], "s")
    m["trace.overhead_ratio"] = (traced_s / statistics.median(runner.pass_times), "ratio")
    m["trace.spans"] = (len(tracer), "count")
    return m, problems


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description="roughalg benchmark (see README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for needed in (ROOT / "src" / "roughalg", ROOT / "tests" / "oracles.py", ROOT / "tables"):
        if not needed.exists():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2

    # set up under test and on the reference back to back, alternating order
    setup_times, ref_setup_times = [], []
    for i in range(SETUP_REPEATS):
        for package in ("roughalg", "roughalg_ref")[::1 if i % 2 == 0 else -1]:
            t0 = time.perf_counter()
            cases = setup(args.workload, args.seed, package)
            (setup_times if package == "roughalg" else ref_setup_times).append(time.perf_counter() - t0)
    tracer_mod = importlib.import_module("tracer")
    runner = Runner(cases, tracer_mod)
    runner.passes(args.seconds)

    problems = runner.problems
    if args.trace:
        metrics, traced_problems = traced_pass(runner, tracer_mod, args.workload)
        problems += traced_problems
    else:
        nominal = json.loads((BENCH / "data" / "reference.json").read_text())["setup_s"][args.workload]
        metrics = end_to_end(runner, statistics.median(
            c / r for c, r in zip(setup_times, ref_setup_times)), nominal)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "git_sha": git_sha(),
        "setup_samples": len(setup_times), "passes": len(runner.pass_times),
        "cases": len(cases),
        "call_samples": sum(len(ts) for ts in runner.times.values()),
        "work_per_pass": sum(c.work for c in cases),
        "output_digest": hashlib.sha256(json.dumps(
            sorted((n, v[0]) for n, v in runner.verdicts.items())).encode()).hexdigest()[:16],
        "raw": {**raw_times(runner), "setup_s": statistics.median(setup_times),
                "ref_setup_s": statistics.median(ref_setup_times)},
        "errors": runner.errors, "self_test_problems": problems,
        "unreached": tracer_mod.unreached(runner.pkg) if args.trace else [],
    }
    print(json.dumps(record, sort_keys=True))
    failed = runner.failed + len(problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
