"""File formats, parsing errors, subcommand behavior, exit codes, reports."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given

from roughalg import FiniteAlgebra, ParseError, SetValuedMap, Subset
from roughalg.cli import (
    _parse_args,
    _top_parser,
    parse_algebra_file,
    parse_partition,
    parse_subset,
    parse_svmap,
    run,
)

from conftest import (BUNDLED, REPO_ROOT, algebras, count_completeness_reads, count_congruence_checks,
                      count_incompatible_scans)
from test_golden import CASES as GOLDEN_CASES
from test_usage import CASES as USAGE_CASES


# ------------------------------------------------------------- file format

def _algebra_text(alg, name=None):
    """The algebra file of alg: an optional name line, the headers, then the table rows."""
    header = [f"algebra {name}"] if name else []
    rows = [" ".join(map(str, row)) for row in alg.table]
    return "\n".join([*header, f"order {alg.n}", f"zero {alg.zero}", *rows]) + "\n"


def _parse_algebra(text):
    """The algebra of an algebra file, without its name."""
    return parse_algebra_file(text)[1]


def test_render_parse_roundtrip_fixtures():
    for alg in BUNDLED.values():
        assert parse_algebra_file(_algebra_text(alg)) == (None, alg)


@given(algebras(5))
def test_render_parse_roundtrip_random(alg):
    assert parse_algebra_file(_algebra_text(alg, name="anything")) == ("anything", alg)


def test_comments_and_blank_lines_are_ignored():
    text = "# heading\n\norder 2\n# middle\nzero 0\n0 1\n\n1 0\n# trailing\n"
    assert _parse_algebra(text).table == ((0, 1), (1, 0))


def test_short_row_reports_line():
    text = "order 4\nzero 0\n0 1 2 3\n1 0 3\n2 3 0 1\n3 2 1 0\n"
    with pytest.raises(ParseError) as exc:
        _parse_algebra(text)
    assert exc.value.line == 4
    assert "3 entries" in str(exc.value)


def test_out_of_range_entry_reports_position():
    text = "order 4\nzero 0\n0 1 2 3\n1 0 3 2\n2 3 7 1\n3 2 1 0\n"
    with pytest.raises(ParseError) as exc:
        _parse_algebra(text)
    assert exc.value.line == 5
    assert exc.value.column == 5
    assert "7" in str(exc.value)


def _parse_error(parse, *args):
    with pytest.raises(ParseError) as exc:
        parse(*args)
    return str(exc.value), exc.value.line, exc.value.column


def test_bad_integer_in_row():
    assert _parse_error(_parse_algebra, "order 2\nzero 0\n0  x\n1 0\n") == (
        "bad integer 'x' (line 3, column 4)", 3, 4)
    assert _parse_error(_parse_algebra, "order 2\nzero 0\n0 1\n+1 0\n") == (
        "bad integer '+1' (line 4, column 1)", 4, 1)


def test_missing_headers():
    for text, message, line in [
        ("", "missing 'order <n>' header", None),
        ("algebra a\n", "missing 'order <n>' header", None),
        ("order 1\n", "missing 'zero <z>' header", None),
        ("zero 0\n0\n", "expected 'order <n>' header (line 1)", 1),
        ("order 1\n0\n", "expected 'zero <z>' header (line 2)", 2),
        ("order 1 2\nzero 0\n0\n", "expected 'order <n>' header (line 1)", 1),
        ("order 1\nzero\n0\n", "expected 'zero <z>' header (line 2)", 2),
        ("algebra\norder 1\nzero 0\n0\n", "'algebra' header needs a name (line 1)", 1),
        ("# c\norder x\nzero 0\n0\n", "bad integer 'x' in order header (line 2)", 2),
        ("order 0\nzero 0\n", "order must be at least 1, got 0 (line 1)", 1),
        ("order 1\nzero z\n0\n", "bad integer 'z' in zero header (line 2)", 2),
        # an integer is an optional '-' and ASCII digits: no sign '+', no '_', no other digits
        ("order \u0662\nzero 0\n0 1\n1 0\n", "bad integer '\u0662' in order header (line 1)", 1),
        ("order 2\nzero +0\n0 1\n1 0\n", "bad integer '+0' in zero header (line 2)", 2),
        ("order 1_0\nzero 0\n", "bad integer '1_0' in order header (line 1)", 1),
        ("order 2\nzero -1\n0 1\n1 0\n", "zero element -1 outside carrier 0..1 (line 2)", 2),
        ("order 2\n\nzero 2\n0 1\n1 0\n", "zero element 2 outside carrier 0..1 (line 3)", 3),
    ]:
        assert _parse_error(_parse_algebra, text) == (message, line, None), text


def test_trailing_content_rejected():
    with pytest.raises(ParseError, match="unexpected content"):
        _parse_algebra("order 1\nzero 0\n0\nextra\n")


def test_missing_rows_rejected():
    with pytest.raises(ParseError, match="expected 2 table rows"):
        _parse_algebra("order 2\nzero 0\n0 1\n")


# ------------------------------------------------------------- small parsers

def test_parse_subset():
    assert parse_subset("0,1", 5) == Subset.from_elements(5, [0, 1])
    assert parse_subset("", 5) == Subset.empty(5)
    assert parse_subset(" 2 , 4 ", 5) == Subset.from_elements(5, [2, 4])


def test_parse_subset_errors():
    for text, message in [("1,1", "duplicate element 1 in subset '1,1'"),
                          ("5", "element 5 outside carrier 0..2"),
                          ("0, 5", "element 5 outside carrier 0..2"),
                          ("a", "bad integer 'a' in subset 'a'"),
                          ("0,,1", "malformed subset '0,,1': empty element between separators"),
                          (" 0,a ", "bad integer 'a' in subset '0,a'"),
                          ("+1", "bad integer '+1' in subset '+1'"),
                          ("1_0", "bad integer '1_0' in subset '1_0'"),
                          ("\u0663", "bad integer '\u0663' in subset '\u0663'"),
                          ("0,\uff11", "bad integer '\uff11' in subset '0,\uff11'"),
                          ("--1", "bad integer '--1' in subset '--1'"),
                          ("-1", "element -1 outside carrier 0..2")]:
        assert _parse_error(parse_subset, text, 3) == (message, None, None)


def test_parse_partition(worked_partition):
    assert parse_partition("0,1|2|3|4", 5) == worked_partition


def test_parse_partition_errors():
    for text, message in [("0,1|1,2", "bad partition '0,1|1,2': element 1 appears in two classes"),
                          ("0|1", "bad partition '0|1': element 2 is not covered by any class"),
                          ("0||1", "bad partition '0||1': empty class is not allowed"),
                          ("a|b", "bad integer 'a' in subset 'a'")]:
        assert _parse_error(parse_partition, text, 3) == (message, None, None)


def test_parse_svmap():
    f = parse_svmap("0:0;1:0,1;2:", 3, 2)
    assert f == SetValuedMap(3, 2, [[0], [0, 1], []])


def test_parse_svmap_errors():
    for text, message in [("nonsense", "malformed map entry 'nonsense': expected 'x:image'"),
                          ("x:0;1:1", "bad integer 'x' in map entry 'x:0'"),
                          ("0:0; :1", "bad integer '' in map entry ' :1'"),
                          ("+0:0;1:1", "bad integer '+0' in map entry '+0:0'"),
                          ("0:0;2:1", "source element 2 outside carrier 0..1"),
                          ("0:0;1:3", "element 3 outside carrier 0..1"),
                          ("0:0;0:1", "source element 0 appears twice in map"),
                          ("0:0", "map is not total: no image for 1")]:
        assert _parse_error(parse_svmap, text, 2, 2) == (message, None, None)


# ------------------------------------------------------------- subcommands

def _fixture(tables_dir, name):
    return str(tables_dir / f"{name}.alg")


def test_check_pass_and_fail(tables_dir, capsys):
    assert run(["check", _fixture(tables_dir, "bo5"), "--axioms", "bo"]) == 0
    assert "BO: C1 ✓ C2 ✓ C5 ✓" in capsys.readouterr().out
    assert run(["check", _fixture(tables_dir, "z4"), "--axioms", "z"]) == 1
    out = capsys.readouterr().out
    assert "✗" in out


def test_check_explicit_axiom_list(tables_dir, capsys):
    assert run(["check", _fixture(tables_dir, "bh4"), "--axioms", "c1,c4"]) == 0
    assert "C1 ✓ C4 ✓" in capsys.readouterr().out
    # a spec that is neither a label nor a comma list of C1..C7 exits 2 on check and search alike
    # and so does an alias neither the help nor this message names
    for spec, bad in (("c1,c9", "c9"), ("", ""), ("c1,", ""), ("zrelaxed", "zrelaxed")):
        for argv in (["check", _fixture(tables_dir, "bh4")], ["search", "--order", "2"]):
            assert run([*argv, "--axioms", spec]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: unknown axiom or label {bad!r}; "
                                    "use b, bh, bo, z, z-relaxed or c1..c7\n")
    # a repeated axiom is refused, not checked or searched twice
    for spec, name in (("c1,c1", "C1"), ("c1,c2,C2", "C2"), ("c4, c1,c4", "C4")):
        for argv in (["check", _fixture(tables_dir, "bh4")], ["search", "--order", "2", "--count"]):
            assert run([*argv, "--axioms", spec]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: axiom {name} is listed more than once\n")


def test_identities_subcommand(tables_dir, capsys):
    assert run(["identities", _fixture(tables_dir, "b4")]) == 0
    out = capsys.readouterr().out
    assert "two-sided identities: {0}" in out


def test_ideals_subcommand(tables_dir, capsys):
    assert run(["ideals", _fixture(tables_dir, "bh4")]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["4 ideals", "{0}", "{0,1}", "{0,1,2}", "{0,1,2,3}"]


def test_congruences_subcommand(tables_dir, capsys):
    assert run(["congruences", _fixture(tables_dir, "bh4")]) == 0
    out = capsys.readouterr().out
    assert "3 congruences" in out
    assert "0,1|2|3" in out


def test_approx_subcommand(tables_dir, capsys):
    code = run(["approx", _fixture(tables_dir, "bo5"),
                "--partition", "0,1|2|3|4", "--set", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "lower: {}" in out
    assert "upper: {0,1}" in out
    assert "boundary: {0,1}" in out
    assert "rough: yes" in out
    # "" is a partition with one empty class: refused, not a crash
    assert run(["approx", _fixture(tables_dir, "bo5"), "--partition", "", "--set", "0"]) == 2
    assert capsys.readouterr().err == "error: bad partition '': empty class is not allowed\n"


def test_approx_from_ideal(tables_dir, capsys):
    code = run(["approx", _fixture(tables_dir, "bo5"), "--ideal", "0", "--set", "0"])
    assert code == 0
    out = capsys.readouterr().out
    # the ideal {0} induces the identity relation: everything is definable
    assert "rough: no (definable)" in out
    # a subset that is not an ideal is reported as such, before its induced relation
    assert run(["approx", _fixture(tables_dir, "bo5"), "--ideal", "0,1", "--set", "0"]) == 2
    assert "{0,1} is not an ideal: membership closure fails at (x=3, y=1)" in capsys.readouterr().err
    assert run(["approx", _fixture(tables_dir, "bo5"), "--ideal", "1", "--set", "0"]) == 2
    assert "{1} is not an ideal: zero element 0 is missing" in capsys.readouterr().err


def test_approx_selective_flags(tables_dir, capsys):
    code = run(["approx", _fixture(tables_dir, "bo5"),
                "--partition", "0,1|2|3|4", "--set", "0", "--upper"])
    assert code == 0
    out = capsys.readouterr().out
    assert "upper: {0,1}" in out
    assert "lower:" not in out
    assert "boundary:" not in out


def test_verify_claim_regressions(tables_dir, capsys):
    assert run(["verify", _fixture(tables_dir, "z4"),
                "--claim", "z-ideal", "--set", "0,1,2"]) == 1
    out = capsys.readouterr().out
    assert "FAILS" in out
    assert run(["verify", _fixture(tables_dir, "bo5"),
                "--claim", "bo-ideal", "--set", "0,1"]) == 1
    out = capsys.readouterr().out
    assert "x=3, y=1" in out
    assert run(["verify", _fixture(tables_dir, "bh4"),
                "--claim", "ideal", "--set", "0,1"]) == 0
    capsys.readouterr()
    # an unknown claim is a usage error
    with pytest.raises(SystemExit) as exc:
        run(["verify", _fixture(tables_dir, "bh4"), "--claim", "bh-ideals", "--set", "0,1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --claim: invalid choice: 'bh-ideals'" in captured.err


def test_verify_claim_congruence(tables_dir, capsys):
    assert run(["verify", _fixture(tables_dir, "bh4"),
                "--claim", "congruence", "--partition", "0,1|2|3"]) == 0
    assert run(["verify", _fixture(tables_dir, "bh4"),
                "--claim", "complete-congruence", "--partition", "0,1|2|3"]) == 1
    capsys.readouterr()
    # a claim takes neither --prop nor --exhaustive
    with pytest.raises(SystemExit) as exc:
        run(["verify", _fixture(tables_dir, "bh4"), "--claim", "congruence",
             "--partition", "0,1|2|3", "--prop", "2-1", "--exhaustive"])
    assert exc.value.code == 2
    assert "argument --prop: not allowed with argument --claim" in capsys.readouterr().err
    assert run(["verify", _fixture(tables_dir, "bh4"), "--claim", "congruence",
                "--partition", "0,1|2|3", "--exhaustive"]) == 2
    assert capsys.readouterr().err == "error: --exhaustive applies to --prop only\n"


def test_verify_prop_single(tables_dir, capsys):
    code = run(["verify", _fixture(tables_dir, "bo5"), "--prop", "2-1",
                "--partition", "0,1|2|3|4", "--set", "0", "--set2", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "law 7" in out


def test_verify_prop_single_via_ideal_relation(tables_dir, capsys):
    code = run(["verify", _fixture(tables_dir, "bo5"), "--prop", "3-1",
                "--ideal", "0", "--set", "0,1", "--set2", "1"])
    assert code == 0
    assert "law 1" in capsys.readouterr().out
    # --partition and --ideal are one exclusive choice, as for approx
    with pytest.raises(SystemExit) as exc:
        run(["verify", _fixture(tables_dir, "bh4"), "--prop", "2-1",
             "--partition", "0,1|2|3", "--ideal", "7", "--set", "0"])
    assert exc.value.code == 2
    assert "argument --ideal: not allowed with argument --partition" in capsys.readouterr().err


# each verify mode: the flags of a minimal call, then the other flags it reads
_VERIFY_MODES = {
    "--claim ideal": (["--set"], []),
    "--claim bh-ideal": (["--set"], []),
    "--claim bo-ideal": (["--set"], []),
    "--claim z-ideal": (["--set"], []),
    "--claim strong-ideal": (["--set"], []),
    "--claim equivalence-from-ideal": (["--set"], []),
    "--claim congruence": (["--partition"], []),
    "--claim complete-congruence": (["--partition"], []),
    "--prop 2-1": (["--partition", "--set"], ["--ideal", "--set2"]),
    "--prop 2-1 --exhaustive": ([], ["--partition", "--ideal"]),
}
_FLAG_VALUES = {"--partition": "0,1|2|3", "--ideal": "0,1", "--set": "0", "--set2": "1"}


@pytest.mark.parametrize("flag", list(_FLAG_VALUES))
@pytest.mark.parametrize("mode", list(_VERIFY_MODES))
def test_verify_mode_reads_only_its_flags(tables_dir, capsys, mode, flag):
    minimal, optional = _VERIFY_MODES[mode]

    def call(flags):
        argv = ["verify", _fixture(tables_dir, "bh4"), *mode.split()]
        for f in flags:
            argv += [f, _FLAG_VALUES[f]]
        return run(argv), capsys.readouterr()

    # --ideal takes the place of --partition, which argparse refuses beside it
    others = [f for f in minimal if f != flag and (f, flag) != ("--partition", "--ideal")]
    if flag in optional:
        assert call(others + [flag])[0] in (0, 1)
        return
    # a required flag left out, or a flag the mode does not read, exits 2 naming the flag
    code, captured = call(others if flag in minimal else others + [flag])
    assert code == 2
    assert captured.out == ""
    assert re.search(rf"{flag}\b", captured.err)


def test_verify_claim_json_reports_all_witnesses(tables_dir, capsys):
    code = run(["verify", _fixture(tables_dir, "z4"), "--claim", "z-ideal",
                "--set", "0,1,2", "--format", "json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pair_witnesses"] == [[3, 0], [3, 1], [3, 2]]
    assert [3, 1] in report["pair_witnesses"]


def test_verify_prop_32_requires_congruence(tables_dir, capsys):
    code = run(["verify", _fixture(tables_dir, "bo5"), "--prop", "3-2",
                "--partition", "0,1|2|3|4", "--set", "0", "--set2", "2"])
    assert code == 2
    assert "not a congruence" in capsys.readouterr().err


def test_verify_prop_32_exhaustive(tables_dir, capsys):
    assert run(["verify", _fixture(tables_dir, "bh4"), "--prop", "3-2", "--exhaustive"]) == 0
    out = capsys.readouterr().out
    assert "upper product law violations: 0" in out


def test_verify_prop_32_exhaustive_pinned_partition(tables_dir, capsys):
    bh4 = _fixture(tables_dir, "bh4")
    # the incomplete congruence alone: its 57 informational lower-law findings
    assert run(["verify", bh4, "--prop", "3-2", "--exhaustive", "--partition", "0,1|2|3"]) == 0
    out = capsys.readouterr().out
    assert "congruences: 1, subset pairs: 256" in out
    assert "non-complete congruences: 57" in out
    # a pinned non-congruence is refused as by the single-pair check
    assert run(["verify", bh4, "--prop", "3-2", "--exhaustive", "--partition", "0,2|1|3"]) == 2
    err = capsys.readouterr().err
    assert run(["verify", bh4, "--prop", "3-2", "--partition", "0,2|1|3", "--set", "0"]) == 2
    assert err == capsys.readouterr().err
    assert "error: partition is not a congruence (witness " in err


def test_verify_prop_31_exhaustive(tables_dir, capsys):
    assert run(["verify", _fixture(tables_dir, "b4"), "--prop", "3-1", "--exhaustive"]) == 0
    out = capsys.readouterr().out
    assert "gated law violations: 0" in out


def test_verify_exhaustive_pinned_partition(tables_dir, capsys):
    code = run(["verify", _fixture(tables_dir, "bo5"), "--prop", "2-1",
                "--exhaustive", "--partition", "0,1|2|3|4"])
    assert code == 0
    assert "partitions: 1," in capsys.readouterr().out
    # an empty --partition pins the sweep like any other, and is refused
    assert run(["verify", _fixture(tables_dir, "bo5"), "--prop", "2-1", "--exhaustive",
                "--partition", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad partition '': empty class is not allowed\n"


def test_verify_exhaustive_order_guard(tmp_path, capsys):
    z7 = FiniteAlgebra(7, [[(x - y) % 7 for y in range(7)] for x in range(7)])
    path = tmp_path / "z7.alg"
    path.write_text(_algebra_text(z7))
    assert run(["verify", str(path), "--prop", "2-1", "--exhaustive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: exhaustive partition sweep is limited to order <= 6; "
                            "pass --partition to pin one\n")


def test_verify_pinned_sweep_order_guard(capsys):
    # a pinned partition or ideal lifts the partition-count guard, not the sweep's order limit
    z13 = str(REPO_ROOT / "tests" / "data" / "z13.alg")
    for pin in (["--partition", "0,1|" + "|".join(map(str, range(2, 13)))], ["--ideal", "0"]):
        assert run(["verify", z13, "--prop", "2-1", "--exhaustive", *pin]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: exhaustive law sweep of order 13 exceeds its limit 12\n"


def test_verify_exhaustive_pinned_ideal(tables_dir, capsys):
    bh4 = _fixture(tables_dir, "bh4")
    # the ideal {0,1} induces 0,1|2|3 and pins the sweep to it, as --partition does
    outs = []
    for pin in (["--ideal", "0,1"], ["--partition", "0,1|2|3"]):
        assert run(["verify", bh4, "--prop", "2-1", "--exhaustive", *pin]) == 0
        outs.append(capsys.readouterr().out)
    assert "partitions: 1, subset pairs: 256," in outs[0]
    assert outs[0] == outs[1]
    # --ideal is resolved as for a single pair: a bad element or a non-ideal exits 2
    assert run(["verify", bh4, "--prop", "2-1", "--exhaustive", "--ideal", "7"]) == 2
    assert capsys.readouterr().err == "error: element 7 outside carrier 0..3\n"
    assert run(["verify", bh4, "--prop", "2-1", "--exhaustive", "--ideal", "1"]) == 2
    assert "error: --ideal {1} is not an ideal: zero element 0 is missing" in capsys.readouterr().err
    # for 3-2 the ideal's partition 0,1,2|3 must be a congruence, and it is not
    assert run(["verify", bh4, "--prop", "3-2", "--exhaustive", "--ideal", "0,1,2"]) == 2
    assert "error: partition is not a congruence (witness " in capsys.readouterr().err


def test_ideal_relation_not_an_equivalence(tmp_path, capsys):
    # a BH algebra of order 4 where the ideal {0,1,3} relates 1~0 and 0~3 but not 1~3
    path = tmp_path / "bh4-intransitive.alg"
    path.write_text("order 4\nzero 0\n0 0 0 0\n1 0 0 0\n2 2 0 2\n3 2 0 0\n")
    assert run(["approx", str(path), "--ideal", "0,1,3", "--set", "0"]) == 2
    assert capsys.readouterr().err == (
        "error: the relation induced by the ideal is not an equivalence "
        "(reflexivity None, symmetry None, transitivity (1, 0, 3))\n")


@pytest.mark.parametrize("argv, calls", [
    (["verify", "bh4", "--prop", "3-2", "--exhaustive"], 15),
    (["congruences", "bh4"], 15),
    (["verify", "bh4", "--prop", "3-2", "--partition", "0,1|2|3", "--set", "0"], 1),
    (["verify", "bh4", "--prop", "2-1", "--exhaustive"], 0),
    (["verify", "bh4", "--claim", "complete-congruence", "--partition", "0,1|2|3"], 1),
])
def test_each_partition_is_checked_for_congruence_once(tables_dir, monkeypatch, capsys, argv, calls):
    # calls counts the compatibility scans.  Bell(4) = 15 partitions of bh4, 3 of them
    # congruences: enumeration scans all 15 as class indexes and calls no is_congruence.
    # A sweep reads each partition's congruence verdict from its product table, so the
    # exhaustive sweeps scan none: the 3-2 sweep's 15 are its enumeration's.  A partition
    # given with --partition is checked by one is_congruence call, whose scan is counted too
    checked, scans = count_congruence_checks(monkeypatch), count_incompatible_scans(monkeypatch)
    run([argv[0], _fixture(tables_dir, argv[1]), *argv[2:]])
    capsys.readouterr()
    assert len(scans) == calls
    assert len(checked) == (calls if "--partition" in argv else 0)


@pytest.mark.parametrize("argv, calls", [
    (["congruences", "bh4"], 3),
    (["verify", "bh4", "--claim", "complete-congruence", "--partition", "0,1|2|3"], 1),
    (["verify", "bh4", "--prop", "3-2", "--exhaustive"], 3),
    (["verify", "bh4", "--prop", "3-2", "--partition", "0,1|2|3", "--set", "0"], 1),
    (["verify", "bh4", "--prop", "2-1", "--exhaustive"], 0),
])
def test_each_congruence_is_read_for_completeness_once(tables_dir, monkeypatch, capsys, argv, calls):
    # bh4 has 3 congruences: listing them or sweeping 3-2 over them reads each one's
    # completeness once, and a pinned partition is read once.  The 2-1 sweep gates nothing on
    # completeness, and the failures it records (each measured law's first) fall on
    # partitions that are not congruences, so it reads none
    reads = count_completeness_reads(monkeypatch)
    run([argv[0], _fixture(tables_dir, argv[1]), *argv[2:]])
    capsys.readouterr()
    assert len(reads) == calls


def test_search_count(capsys):
    assert run(["search", "--order", "2", "--axioms", "b", "--count"]) == 0
    assert "1" in capsys.readouterr().out


def test_search_find(capsys):
    code = run(["search", "--order", "3", "--axioms", "bh", "--find", "3-2:2-incomplete"])
    assert code == 1
    assert "counterexample" in capsys.readouterr().out
    code = run(["search", "--order", "3", "--axioms", "b", "--find", "2-1:1"])
    assert code == 0
    capsys.readouterr()
    # a hunt neither counts nor emits models
    for flag in ("--emit", "--count"):
        assert run(["search", "--order", "3", "--axioms", "bh", "--find", "3-2:1", flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --find cannot be combined with --count or --emit\n"


def test_search_limits_exit_2(capsys):
    # the explored prefix counts models for --count and algebras swept to the end for --find
    for argv, count in ((["--count", "--limit", "5"], 5), (["--find", "3-2:1", "--limit", "2"], 2)):
        assert run(["search", "--order", "3", "--axioms", "bh", *argv]) == 2
        assert f"prefix count: {count})" in capsys.readouterr().err
    code = run(["search", "--order", "4", "--axioms", "bh", "--find", "3-2:2-complete", "--budget", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: time budget exceeded (explored prefix count: ")
    assert int(err.split(": ")[-1].rstrip(")\n")) > 0
    code = run(["search", "--order", "4", "--axioms", "bh", "--count", "--budget", "0"])
    assert code == 2
    capsys.readouterr()
    # an order outside the search limit names the flag and no API field
    for order in ("0", "6"):
        assert run(["search", "--order", order, "--axioms", "b", "--count"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --order: order {order} is outside the search limit 1..5\n"
    # out-of-range limits are rejected before any search, naming the flag
    for flag, value in (("--limit", "0"), ("--limit", "-1"), ("--budget", "-1"),
                        ("--budget", "nan"), ("--budget", "inf")):
        code = run(["search", "--order", "3", "--axioms", "bh", "--count", flag, value])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag}: ")
        assert "prefix count" not in captured.err
    # integer flags read ASCII digits only, as the file reader does
    for flag, value in (("--order", "٢"), ("--order", "abc"), ("--limit", "1_0"), ("--limit", "+3")):
        argv = {"--order": "3", "--axioms": "bh", flag: value}
        code = run(["search", *[w for item in argv.items() for w in item], "--count"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad integer {value!r} in {flag}\n"
    # --budget reads an ASCII number with no '_' and no surrounding whitespace
    for value in ("1_0", "٣", " 2", "2 ", "abc"):
        code = run(["search", "--order", "2", "--axioms", "b", "--count", "--budget", value])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad number {value!r} in --budget\n"
    # the order guard holds for hunts that sweep partitions alone: refused before the budget starts
    code = run(["search", "--order", "9", "--axioms", "b", "--find", "3-1:3", "--budget", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --order: order 9 ")


def test_check_max_witnesses_flag(tables_dir, capsys):
    code = run(["check", _fixture(tables_dir, "z4"), "--axioms", "c1", "--max-witnesses", "1"])
    assert code == 1
    capsys.readouterr()
    code = run(["check", _fixture(tables_dir, "z4"), "--axioms", "c1", "--max-witnesses", "0"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-witnesses: max_witnesses must be at least 1, got 0\n"
    for value in ("+3", "1_0", "٣", "three"):
        code = run(["check", _fixture(tables_dir, "z4"), "--axioms", "c1", "--max-witnesses", value])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad integer {value!r} in --max-witnesses\n"


def test_morphism_subcommand(tables_dir, capsys):
    assert run(["morphism", _fixture(tables_dir, "b4"),
                "--map", "0:0;1:1;2:2;3:3", "--strong"]) == 0
    capsys.readouterr()
    code = run(["morphism", _fixture(tables_dir, "b4"), "--map", "0:1;1:0;2:2;3:3"])
    assert code == 1
    assert "witness" in capsys.readouterr().out


def test_unreadable_algebra_file_exits_2(tables_dir, tmp_path, capsys):
    # a file that is not UTF-8, not there, or named with a NUL byte is refused as the source
    # and as the --target
    bad = tmp_path / "bad.alg"
    bad.write_bytes(b"order 2\nzero 0\n0 1\n1 \xff\n")
    missing = str(tmp_path / "missing.alg")
    b4 = _fixture(tables_dir, "b4")
    nul = str(tables_dir / "b4\x00.alg")  # open() raises ValueError, not OSError, for a NUL byte
    for path, argv in ((str(bad), ["check", str(bad), "--axioms", "b"]),
                       (str(bad), ["morphism", b4, "--map", "0:0;1:1;2:2;3:3", "--target", str(bad)]),
                       (missing, ["check", missing, "--axioms", "b"]),
                       (nul, ["check", nul, "--axioms", "b"]),
                       (nul, ["morphism", b4, "--map", "0:0;1:1;2:2;3:3", "--target", nul])):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path}: ")


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("order 2\nzero 0\n0 7\n1 0\n")
    assert run(["check", str(bad), "--axioms", "b"]) == 2
    assert "error" in capsys.readouterr().err
    bad.write_text("order ٢\nzero +0\n0 1\n1 0\n", encoding="utf-8")
    assert run(["check", str(bad), "--axioms", "b"]) == 2
    assert capsys.readouterr().err == "error: bad integer '٢' in order header (line 1)\n"
    assert run(["check", str(tmp_path / "missing.alg"), "--axioms", "b"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["nonsense"])
    assert exc.value.code == 2


# ------------------------------------------------------------- argument parsing

def _parsed(parse, argv):
    """(the fields of parse(argv), None), or (None, (exit code, stdout, stderr)) when it exits."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(argv)), None
    except SystemExit as e:
        return None, (e.code, out.getvalue(), err.getvalue())


def _top_level(argv):
    return _top_parser().parse_args(argv)


_CHECK = ["check", "tables/bh4.alg", "--axioms", "b"]
_VERIFY = ["verify", "tables/bh4.alg", "--prop", "2-1", "--partition", "0,1|2|3", "--set", "0"]
# argvs whose parse turns on how argparse treats them, each a success or an exit
_EDGE_ARGVS = {
    "abbreviated-format": _CHECK + ["--form", "json"],
    "help-after-file": ["check", "tables/bh4.alg", "-h"],
    "double-dash-before-file": ["check", "--axioms", "b", "--", "tables/bh4.alg"],
    "double-dash-at-end": _CHECK + ["--"],
    "repeated-format": _CHECK + ["--format", "json", "--format", "text"],
    "format-with-equals": _CHECK + ["--format=json"],
    "bad-format-choice": _CHECK + ["--format", "xml"],
    "missing-required-flag": ["check", "tables/bh4.alg"],
    "missing-file": ["check", "--axioms", "b"],
    "prop-and-claim": _VERIFY + ["--claim", "ideal"],
    "partition-and-ideal": _VERIFY + ["--ideal", "0"],
    "ambiguous-abbreviation": _VERIFY + ["--se", "0"],
    "extra-positional": _CHECK + ["tables/b4.alg"],
    "unknown-options": ["check", "--bogus", "tables/bh4.alg", "--axioms", "b", "-q"],
    "search-with-file": ["search", "tables/bh4.alg", "--order", "2", "--axioms", "b"],
    "negative-number": ["search", "--order", "-1", "--axioms", "b"],
    "option-value-looks-like-option": _CHECK + ["--max-witnesses", "--format"],
}


@pytest.mark.parametrize("name", sorted(_EDGE_ARGVS))
def test_one_parser_parses_edge_argvs_as_the_top_level_parser(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = _EDGE_ARGVS[name]
    assert _parsed(_parse_args, argv) == _parsed(_top_level, argv)


def test_one_parser_parses_every_golden_and_usage_argv_as_the_top_level_parser(monkeypatch):
    # the same namespace on success, the same exit code, stdout and stderr on exit
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [*GOLDEN_CASES.values(), *(argv for argv, _ in USAGE_CASES.values())]
    for argv in argvs:
        assert _parsed(_parse_args, argv) == _parsed(_top_level, argv), argv
    # every golden argv parses; of the usage argvs, only the two with a bad ROUGHALG_FORMAT do
    assert sum(_parsed(_parse_args, argv)[0] is not None for argv in argvs) == len(GOLDEN_CASES) + 2


# ------------------------------------------------------------- reports

def test_json_format_flag(tables_dir, capsys):
    assert run(["ideals", _fixture(tables_dir, "bh4"), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ideals"] == [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3]]
    assert report["count"] == 4


def test_format_env_var(tables_dir, capsys, monkeypatch):
    monkeypatch.setenv("ROUGHALG_FORMAT", "json")
    assert run(["identities", _fixture(tables_dir, "b4")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["two_sided"] == [0]
    # the flag wins over the environment
    assert run(["identities", _fixture(tables_dir, "b4"), "--format", "text"]) == 0
    assert "two-sided identities" in capsys.readouterr().out
    # an unknown format in the environment is refused like one given by the flag
    monkeypatch.setenv("ROUGHALG_FORMAT", "xml")
    with pytest.raises(SystemExit) as exc:
        run(["identities", _fixture(tables_dir, "b4")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ROUGHALG_FORMAT: invalid choice: 'xml'" in captured.err


def test_json_reports_are_byte_identical(tables_dir, capsys):
    argv = ["verify", _fixture(tables_dir, "bh4"), "--prop", "2-1",
            "--exhaustive", "--format", "json"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)


def test_search_json_deterministic(capsys):
    argv = ["search", "--order", "4", "--axioms", "bo", "--count", "--emit", "--format", "json"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["count"] == 4
