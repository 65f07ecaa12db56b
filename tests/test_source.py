"""Rules the package's source keeps: it runs on the standard library alone, it memoizes
nothing behind a functools cache, whose hidden state a deterministic verifier does not need, it
runs generated source in one place only, built from constants, that does not depend on string
hashing and tests nothing the derivation knows, its model search names no axiom, and importing its
CLI loads neither ``dataclasses`` nor ``inspect``, whose import a call would pay for records alone."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

from roughalg import AxiomId

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "roughalg").glob("*.py"))
CACHES = {"cache", "lru_cache", "cached_property"}
CODEGEN = {"exec", "compile", "eval"}


def test_runtime_imports_only_the_standard_library_and_no_functools_cache():
    assert {"__init__.py", "cli.py", "relations.py", "rough.py"} <= {p.name for p in SOURCES}
    imported, caches = set(), []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
                if node.module == "functools":
                    caches += [f"{path.name}: {a.name}" for a in node.names if a.name in CACHES]
            elif (isinstance(node, ast.Attribute) and node.attr in CACHES
                  and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                caches.append(f"{path.name}: functools.{node.attr}")
    assert imported - sys.stdlib_module_names == set()
    assert caches == []


def _nodes(node, scope):
    """(qualified name of the enclosing function or class, node) for each node under node."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda))
        yield from _nodes(child, f"{scope}.{getattr(child, 'name', 'lambda')}" if named else scope)


def test_generated_source_runs_only_in_the_axiom_derivation_on_constants():
    # exec and compile appear once each, and eval never, and only in algebra._clause, which derives
    # every axiom from its terms.  Only AxiomId's __init__ calls it, with its own parameters: the
    # value of a member, which in the class body is a literal.  So no other module runs generated
    # source, and no input reaches it
    codegen, derivations, members, init = [], [], [], None
    for path in SOURCES:
        for scope, node in _nodes(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.name):
            if isinstance(node, ast.Name) and node.id in CODEGEN:
                codegen.append((scope, node.id))
            elif isinstance(node, ast.Name) and node.id == "_clause":
                derivations.append(scope)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_clause":
                arguments = [ast.unparse(arg) for arg in [*node.args, *node.keywords]]
            elif scope == "algebra.py.AxiomId" and isinstance(node, ast.Assign):
                members += [target.id for target in node.targets]
                ast.literal_eval(node.value)  # raises on anything but a constant
            elif scope == "algebra.py.AxiomId" and isinstance(node, ast.FunctionDef) and node.name == "__init__":
                init = [arg.arg for arg in node.args.args]
    assert sorted(codegen) == [("algebra.py._clause", "compile"), ("algebra.py._clause", "exec")]
    assert derivations == ["algebra.py.AxiomId.__init__"]
    assert init == ["self", *arguments]
    assert members == [axiom.name for axiom in AxiomId] == [f"C{i}" for i in range(1, 8)]


def test_derived_source_does_not_depend_on_string_hashing():
    # the source that _clause derives from each member's terms, in two interpreters with different
    # hash seeds: a derivation that followed the order of a str-keyed set would generate other
    # loops, or the same loops in another order, under one of them
    script = ("import hashlib; from roughalg import AxiomId; "
              "print([hashlib.sha256(a._source.encode()).hexdigest() for a in AxiomId])")
    digests = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}).stdout
               for seed in ("0", "4242")]
    assert digests[0] == digests[1] and len(set(ast.literal_eval(digests[0]))) == 7


def test_the_search_names_no_axiom():
    # the search reads what AxiomId derives for each axiom (its pin, propagator, value filter and use
    # of the index), so a new axiom, or a new clause, needs no change there
    tree = ast.parse((SRC / "roughalg" / "search.py").read_text(encoding="utf-8"))
    words = {getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "value", None)
             for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name, ast.Constant))}
    assert words & {f"C{i}" for i in range(1, 8)} == set()
    assert {"pin", "_propagate", "_excluded", "_reads_held"} <= words


def test_derived_source_tests_nothing_the_derivation_knows():
    # each statement of a clause's derived source can change a result: a function binds rng only
    # where it loops over it; the propagator, called only on a determined cell, never tests v, its
    # value; a clause that reads the index, called only with one, never tests held; and a product
    # that a premise compares with the zero is not tested for -1, which is not the zero.  The line
    # counts pin the derivation, so that no such statement comes back unseen
    lines = {}
    for axiom in AxiomId:
        source = axiom._source
        lines[axiom.name] = len(source.splitlines())
        for function in source.split("\ndef "):
            assert bool(re.search(r"^    rng[ ,]", function, re.M)) == (" in rng:" in function), (axiom, function)
        assert "v < 0" not in source, axiom
        assert not axiom._reads_held or "held is None" not in source, axiom
        for name in re.findall(r"\b(\w+) == zero\b", source):
            assert f"if {name} >= 0:" not in source, (axiom, name)
    assert lines == {"C1": 7, "C2": 7, "C3": 81, "C4": 20, "C5": 81, "C6": 7, "C7": 21}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # the records are named tuples: a CLI call imports no module to declare them.  A fresh
    # interpreter, because the test run itself has imported both
    script = "import sys, roughalg.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    loaded = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    assert loaded == "[]\n"
