"""Byte-level help screens and usage errors of the command line.

Every case is one ``roughalg`` command line that argparse answers itself:
a help screen (exit 0) or a usage error (exit 2).  Its file under
``tests/usage/`` holds the exit code on the first line (``exit N``), then
the exact stdout and stderr bytes, each after its own marker line.  The
terminal is 80 columns wide, because argparse wraps help to its width.

To re-capture after a deliberate change of the help or usage text, from
the repository root:

    PYTHONPATH=src python tests/test_usage.py
"""

import contextlib
import importlib
import io
import os
import sys
from pathlib import Path

import pytest

from roughalg.cli import run

REPO_ROOT = Path(__file__).resolve().parent.parent
USAGE_DIR = REPO_ROOT / "tests" / "usage"
COMMANDS = ("check", "identities", "ideals", "congruences", "approx", "verify", "search",
            "morphism")

# case name -> (argv, environment)
CASES = {
    "help": (["--help"], {}),
    **{f"help-{name}": ([name, "--help"], {}) for name in COMMANDS},
    "help-before-command": (["-h", "verify"], {}),
    "no-arguments": ([], {}),
    "unknown-command": (["nope"], {}),
    "leading-unknown-option": (["-x", "verify", "f"], {}),
    "double-dash": (["--", "check"], {}),
    "unrecognized-argument": (["check", "tables/bh4.alg", "--axioms", "b", "--bogus"], {}),
    "bad-format-env": (["check", "tables/bh4.alg", "--axioms", "b"], {"ROUGHALG_FORMAT": "xml"}),
}


def _transcript(code, out: str, err: str) -> str:
    return f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"


def run_case(argv) -> str:
    """The transcript of one in-process CLI run that argparse ends."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            run(argv)
    return _transcript(exc.value.code, out.getvalue(), err.getvalue())


@pytest.mark.parametrize("name", sorted(CASES))
def test_usage(name, monkeypatch):
    argv, env = CASES[name]
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("ROUGHALG_FORMAT", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert run_case(argv) == (USAGE_DIR / f"{name}.txt").read_text(encoding="utf-8")


def test_console_script_reads_sys_argv(monkeypatch, capsys):
    # the installed `roughalg` script imports its pyproject target and calls it with no arguments
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, name = project["project"]["scripts"]["roughalg"].partition(":")
    script = getattr(importlib.import_module(module), name)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "argv", ["roughalg", "check", "--help"])
    with pytest.raises(SystemExit) as exc:
        script()
    captured = capsys.readouterr()
    assert _transcript(exc.value.code, captured.out, captured.err) == (
        USAGE_DIR / "help-check.txt").read_text(encoding="utf-8")


def test_every_usage_file_has_a_case():
    assert {p.stem for p in USAGE_DIR.glob("*.txt")} == set(CASES)


def capture():
    """Re-capture every usage file; print each one that changed."""
    os.environ["COLUMNS"] = "80"
    USAGE_DIR.mkdir(exist_ok=True)
    for name, (argv, env) in CASES.items():
        os.environ.pop("ROUGHALG_FORMAT", None)
        os.environ.update(env)
        path = USAGE_DIR / f"{name}.txt"
        new = run_case(argv)
        if not path.exists() or path.read_text(encoding="utf-8") != new:
            path.write_text(new, encoding="utf-8")
            print(f"wrote {name}")


if __name__ == "__main__":
    capture()
