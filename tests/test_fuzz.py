"""A seeded fuzz of the command line: every golden argv, and every fixture text a golden case
reads, after one to three token edits.  Whatever the edits make of a command, a run exits 0, 1
or 2 and raises nothing else, and a run that exits 2 ends its stderr with one error line: argparse's
``roughalg[ <command>]: error: ...``, raised as ``SystemExit(2)``, or the library's ``error: ...``,
returned.  The runs are the same on every machine: one seed draws every edit."""

import contextlib
import io
import random
import re
import traceback

from roughalg.cli import run

from test_golden import CASES, ROOT, _resolve

SEED, RUNS = 37, 1000
# tokens an edit may put in besides the edited command's own: empty, malformed and out-of-range
# values, flags out of place, a NUL byte and a non-ASCII letter
ARGV_TOKENS = ["", "-", "--", "x", "-1", "0", "99", "0,0", "0,,1", "|", "0|0", "1:", ":", ",", "\x00", "é",
               "1e3", "-h", "--set", "--partition", "--format", "--strong", "--emit"]
TEXT_TOKENS = ["", " ", "\n", "#", "-1", "9", "x", "0.5", "1e3", "order", "zero", "algebra", "\x00", "é"]
# the last line of a run's stderr when it exits 2, by whether the run raised SystemExit(2)
ERROR_LINE = {True: re.compile(r"roughalg( [a-z]+)?: error: .+"), False: re.compile(r"error: .+")}


def _edit(rng, tokens, pool):
    """tokens after one to three edits, each of which deletes, replaces or swaps a token, or inserts
    one from pool."""
    tokens = list(tokens)
    for _ in range(rng.randint(1, 3)):
        i, edit = rng.randrange(len(tokens) or 1), rng.choice("drsi" if tokens else "i")
        if edit == "d":
            del tokens[i]
        elif edit == "r":
            tokens[i] = rng.choice(pool)
        elif edit == "s":
            j = rng.randrange(len(tokens))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens.insert(i, rng.choice(pool))
    return tokens


def _run(argv) -> tuple[int, bool, str]:
    """(exit code, whether it was raised as SystemExit, stderr) of one in-process CLI run."""
    out, err, raised = io.StringIO(), io.StringIO(), False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(_resolve(argv))
        except SystemExit as exit_:
            code, raised = exit_.code, True
    return code, raised, err.getvalue()


def test_edited_command_lines_exit_0_1_or_2_and_2_with_an_error_line(tmp_path):
    # about one run in four edits the text of the fixture its golden case reads instead of the argv
    rng, bases, fixture, problems = random.Random(SEED), sorted(CASES.values()), tmp_path / "fixture.alg", []
    for _ in range(RUNS):
        argv = rng.choice(bases)
        path = next((a for a in argv if a.startswith("tables/")), None)
        if path and rng.random() < 0.25:
            text = (ROOT / path).read_text(encoding="utf-8")
            fixture.write_text("".join(_edit(rng, re.split(r"(\s+)", text), TEXT_TOKENS)), encoding="utf-8")
            argv, text = [str(fixture) if a == path else a for a in argv], fixture.read_text(encoding="utf-8")
        else:
            argv, text = _edit(rng, argv, argv + ARGV_TOKENS), None
        try:
            code, raised, err = _run(argv)
        except Exception:  # any other exception is a finding: kept with its input, and the run goes on
            problems.append((argv, text, traceback.format_exc()))
            continue
        last = err.splitlines()[-1] if err.endswith("\n") else ""
        if code not in (0, 1, 2) or code == 2 and not ERROR_LINE[raised].fullmatch(last):
            problems.append((argv, text, code, raised, err[-300:]))
    assert problems == []
