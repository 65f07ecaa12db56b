"""Byte-level golden outputs of the command line.

Every case is one ``roughalg`` command line; its golden file under
``tests/golden/`` holds the exit code on the first line (``exit N``), the
exact stdout bytes after it and, when stderr is not empty, a line
``stderr:`` followed by the exact stderr bytes.  The cases cover every
README command on every fixture in text and JSON, the exhaustive law
sweeps (full and with one pinned partition or ideal), single-pair law
suites, one hunt per suite and a pinned sweep refused for its order.

Beside them, ``tests/golden/derived/`` holds the source that
``algebra._clause`` derives from each axiom's terms, one file per
``AxiomId`` member (``C3.txt`` is ``AxiomId.C3._source`` and a newline):
a change to the derivation shows up as a diff of the code that runs.

To re-capture after a deliberate change of output, from the repository
root:

    PYTHONPATH=src python tests/test_golden.py

It prints the name of each golden it created, changed or deleted, and the
number it left unchanged; review the diff of ``tests/golden/``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from roughalg import AxiomId
from roughalg.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DERIVED_DIR = GOLDEN_DIR / "derived"
STDERR = "stderr:\n"  # the line between a golden's stdout and its stderr

# per fixture: a non-trivial partition, the single class, an ideal for
# --ideal, a subset for --claim, and an identity and a swap map
_FIXTURES = {
    "b4": {"n": 4, "partition": "0,1|2|3"},
    "bo5": {"n": 5, "partition": "0,1|2|3|4"},
    "bh4": {"n": 4, "partition": "0,1|2|3"},
    "z4": {"n": 4, "partition": "0,1|2|3"},
}
_PAIRS = (("0", "2"), ("2", "0,2"), ("0,1", "1,2"), ("", "0"))


def _fixture_cases(name, n, partition):
    path = f"tables/{name}.alg"
    single = ",".join(map(str, range(n)))
    identity = ";".join(f"{x}:{x}" for x in range(n))
    swap = ";".join(f"{x}:{[1, 0][x] if x < 2 else x}" for x in range(n))
    cases = {}
    for axioms in ("b", "bh", "bo", "z", "z-relaxed", "c1,c4"):
        cases[f"check-{axioms}"] = ["check", path, "--axioms", axioms]
    cases["identities"] = ["identities", path]
    cases["ideals"] = ["ideals", path]
    cases["ideals-strong"] = ["ideals", path, "--strong"]
    cases["congruences"] = ["congruences", path]
    cases["approx-partition"] = ["approx", path, "--partition", partition, "--set", "0"]
    cases["approx-partition-upper"] = ["approx", path, "--partition", partition, "--set", "0,2",
                                       "--upper", "--boundary"]
    cases["approx-ideal"] = ["approx", path, "--ideal", "0,1", "--set", "0"]
    cases["approx-ideal-zero"] = ["approx", path, "--ideal", "0", "--set", "1"]
    for claim in ("z-ideal", "strong-ideal", "equivalence-from-ideal"):
        cases[f"claim-{claim}"] = ["verify", path, "--claim", claim, "--set", "0,1,2"]
    for claim in ("congruence", "complete-congruence"):
        cases[f"claim-{claim}"] = ["verify", path, "--claim", claim, "--partition", partition]
    for prop in ("2-1", "3-1", "3-2"):
        cases[f"prop-{prop}-exhaustive"] = ["verify", path, "--prop", prop, "--exhaustive"]
        cases[f"prop-{prop}-exhaustive-pinned"] = ["verify", path, "--prop", prop, "--exhaustive",
                                                   "--partition", partition]
        for part_name, part in (("partition", partition), ("single", single)):
            for i, (a, b) in enumerate(_PAIRS):
                cases[f"prop-{prop}-{part_name}-pair{i}"] = [
                    "verify", path, "--prop", prop, "--partition", part, "--set", a, "--set2", b]
    cases["prop-2-1-exhaustive-ideal"] = ["verify", path, "--prop", "2-1", "--exhaustive",
                                          "--ideal", "0"]
    cases["prop-3-1-ideal"] = ["verify", path, "--prop", "3-1", "--ideal", "0", "--set", "0,1",
                               "--set2", "1"]
    cases["prop-2-1-ideal-one-set"] = ["verify", path, "--prop", "2-1", "--ideal", "0", "--set", "1"]
    cases["morphism-strong"] = ["morphism", path, "--map", identity, "--strong"]
    cases["morphism-swap"] = ["morphism", path, "--map", swap]
    return {f"{name}-{k}": v for k, v in cases.items()}


def _search_cases():
    cases = {
        "search-b2-count-emit": ["search", "--order", "2", "--axioms", "b", "--count", "--emit"],
        "search-bh3-count": ["search", "--order", "3", "--axioms", "bh", "--count"],
        "search-bo4-count-emit": ["search", "--order", "4", "--axioms", "bo", "--count", "--emit"],
    }
    for target in ("2-1:11b", "2-1:12", "2-1:7", "3-1:4", "3-2:1", "3-2:2-incomplete"):
        cases[f"search-bh3-find-{target.replace(':', '_')}"] = [
            "search", "--order", "3", "--axioms", "bh", "--find", target]
    return cases


def _order_six_cases():
    # the order-6 benchmark table: the only exhaustive sweeps over more than 52 partitions
    return {f"s3-prop-{prop}-exhaustive": ["verify", "perfbench/data/s3.alg", "--prop", prop, "--exhaustive"]
            for prop in ("2-1", "3-1")}


def _order_limit_cases():
    # a pinned sweep on an order-13 table: refused (exit 2) before any pair space is built
    return {"z13-prop-2-1-exhaustive-pinned": ["verify", "tests/data/z13.alg", "--prop", "2-1", "--exhaustive",
                                               "--partition", "0,1|" + "|".join(map(str, range(2, 13)))]}


def golden_cases() -> dict[str, list[str]]:
    """Case name -> argv (without --format); the one list of golden commands."""
    cases = {}
    for name, info in _FIXTURES.items():
        cases.update(_fixture_cases(name, info["n"], info["partition"]))
    cases.update(_search_cases())
    cases.update(_order_six_cases())
    cases.update(_order_limit_cases())
    out = {}
    for name, argv in cases.items():
        for fmt in ("text", "json"):
            out[f"{name}-{fmt}"] = argv + ["--format", fmt]
    return out


def _resolve(argv):
    return [str(ROOT / a) if a.startswith(("tables/", "perfbench/", "tests/")) else a for a in argv]


def run_case(argv) -> str:
    """``exit N`` followed by the stdout of one in-process CLI run, then its stderr, if any,
    after a ``stderr:`` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(_resolve(argv))
    return f"exit {code}\n{out.getvalue()}" + (f"{STDERR}{err.getvalue()}" if err.getvalue() else "")


def _read_golden(name) -> tuple[str, str, str]:
    """(exit line, stdout, stderr) of one golden file."""
    code, rest = (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8").split("\n", 1)
    out, _, err = rest.partition(STDERR)
    return code, out, err


def derived_source(axiom) -> str:
    """The golden text of one member's derived source: the source and a newline."""
    return axiom._source + "\n"


def capture():
    """Re-capture every golden and derived source; print each one created, changed or deleted."""
    DERIVED_DIR.mkdir(parents=True, exist_ok=True)
    files = {GOLDEN_DIR / f"{name}.out": run_case(argv) for name, argv in CASES.items()}
    files |= {DERIVED_DIR / f"{axiom.name}.txt": derived_source(axiom) for axiom in AxiomId}
    for old in sorted([*GOLDEN_DIR.glob("*.out"), *DERIVED_DIR.glob("*.txt")]):
        if old not in files:
            old.unlink()
            print(f"deleted {old.relative_to(GOLDEN_DIR).with_suffix('')}")
    unchanged = 0
    for path, text in files.items():
        new = text.encode("utf-8")
        old = path.read_bytes() if path.exists() else None
        if old == new:
            unchanged += 1
            continue
        path.write_bytes(new)
        print(f"{'created' if old is None else 'changed'} {path.relative_to(GOLDEN_DIR).with_suffix('')}")
    print(f"{unchanged} of {len(files)} golden files unchanged in {GOLDEN_DIR}")


CASES = golden_cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    argv = CASES[name]
    want = (GOLDEN_DIR / f"{name}.out").read_bytes()
    assert run_case(argv).encode("utf-8") == want


@pytest.mark.parametrize("name", sorted({name.rsplit("-", 1)[0] for name in CASES}))
def test_exit_code_follows_the_verdict(name):
    # exit 1 exactly on a "fail" verdict, both with nothing on stderr; exit 2 with nothing on
    # stdout and one "error: " line on stderr; one code and one message for both formats
    (code, json_out, json_err), (text_code, text_out, text_err) = (
        _read_golden(f"{name}-{fmt}") for fmt in ("json", "text"))
    assert code == text_code
    if code == "exit 2":
        assert json_out == text_out == ""
        assert json_err == text_err and json_err.startswith("error: ") and json_err.count("\n") == 1
        assert json_err.endswith("\n")
    else:
        assert json_err == text_err == ""
        assert code == ("exit 1" if json.loads(json_out).get("verdict") == "fail" else "exit 0")


def test_every_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN_DIR.glob("*.out")} == set(CASES)


@pytest.mark.parametrize("axiom", AxiomId, ids=lambda axiom: axiom.name)
def test_derived_source(axiom):
    assert (DERIVED_DIR / f"{axiom.name}.txt").read_bytes() == derived_source(axiom).encode("utf-8")


def test_every_derived_file_has_a_member():
    assert {p.name for p in DERIVED_DIR.iterdir()} == {f"{axiom.name}.txt" for axiom in AxiomId}


if __name__ == "__main__":
    capture()
