"""Rules the package's source keeps: it runs on the standard library alone, and it memoizes
nothing behind a functools cache, whose hidden state a deterministic verifier does not need."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "roughalg").glob("*.py"))
CACHES = {"cache", "lru_cache", "cached_property"}


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
