"""Derive the benchmark's pinned answers without roughalg.

Run from the repository root:

    python3 perfbench/derive.py            # check data/answers.json
    python3 perfbench/derive.py --write    # rewrite it

It rebuilds the order-6 table in data/s3.alg from the group S3, computes
the model counts from closed forms, and computes the law-sweep counts and
hunt outcomes with the naive evaluators in naive.py (which build on
tests/oracles.py).  Relabelling the carrier permutes partitions, subset
pairs and algebras, so every count here holds for every benchmark seed.
The full run takes about ten seconds, most of it in the naive hunts.
"""

import argparse
import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "tests"))

import naive  # noqa: E402

ANSWERS = HERE / "data" / "answers.json"
S3_FILE = HERE / "data" / "s3.alg"

# (table name, prop) for the law-sweep workload; "s3-pinned" sweeps one partition
SWEEPS = [("bo5", "2-1"), ("bo5", "3-1"), ("bo5", "3-2"), ("s3", "3-2"), ("s3-pinned", "2-1")]
HUNTS = [(3, "bh", "2-1:11a"), (4, "bh", "2-1:12"), (4, "b", "2-1:12"),
         (3, "bh", "3-2:1"), (3, "bh", "3-2:2-complete")]
SEARCHES = [("b", 6), ("bo", 7), ("bh", 4)]
# The pinned partition of the order-6 2-1 sweep.  It is not a congruence,
# so the measured product laws fail on some pairs and their first-failure
# witnesses get re-checked.
S3_PARTITION = [[0, 1], [2, 3], [4, 5]]


def s3_table():
    """The lexicographically first B table of S3: x*y = x.y^-1, identity 0.

    B models of order 6 are the labelled difference tables of Z6 and S3;
    the first non-abelian one in the search's lexicographic order is the
    least S3 table over all labellings that send the identity to 0.
    """
    g = naive.symmetric_group_3()
    inv = [next(b for b in range(6) if g[a][b] == 0) for a in range(6)]
    best = None
    for rest in itertools.permutations(range(1, 6)):
        f = (0,) + rest
        t = [[0] * 6 for _ in range(6)]
        for a in range(6):
            for b in range(6):
                t[f[a]][f[b]] = f[g[a][inv[b]]]
        if best is None or t < best:
            best = t
    return best


def parse_alg(text):
    rows = [line.split() for line in text.splitlines() if line.strip() and not line.startswith("#")]
    rows = [r for r in rows if r[0] not in ("algebra", "order", "zero")]
    return [[int(v) for v in r] for r in rows]


def derive():
    s3 = s3_table()
    assert parse_alg(S3_FILE.read_text()) == s3, "data/s3.alg differs from the derived S3 table"
    tables = {"bo5": parse_alg((ROOT / "tables" / "bo5.alg").read_text()), "s3": s3}

    out = {"s3_partition": S3_PARTITION, "search": {}, "sweep": {}, "hunt": {}}
    for label, n in SEARCHES:
        if label == "bh":
            count = naive.bh_model_count(n)
        else:
            count = naive.b_model_count(n, abelian_only=label == "bo")
        out["search"][f"{label}{n}"] = count
    for name, prop in SWEEPS:
        if name == "s3-pinned":
            counts = naive.sweep_counts(tables["s3"], prop, partition=S3_PARTITION)
        else:
            counts = naive.sweep_counts(tables[name], prop)
        out["sweep"][f"{name}:{prop}"] = counts
        print(f"sweep {name} {prop}: {counts}", file=sys.stderr)
    for n, label, target in HUNTS:
        finding, evaluations = naive.hunt(n, label, target)
        out["hunt"][f"{label}{n}:{target}"] = {"finding": finding, "evaluations": evaluations}
        print(f"hunt {label}{n} {target}: {finding is not None} after {evaluations}", file=sys.stderr)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="rewrite data/answers.json")
    args = ap.parse_args()
    derived = derive()
    text = json.dumps(derived, indent=1, sort_keys=True) + "\n"
    if args.write:
        ANSWERS.write_text(text)
        return 0
    if ANSWERS.read_text() != text:
        print("data/answers.json differs from the derived answers", file=sys.stderr)
        return 1
    print("data/answers.json matches the derived answers", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
