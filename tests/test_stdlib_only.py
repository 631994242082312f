"""The runtime depends on the standard library alone."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cflsep"


def _absolute_imports(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_every_module_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    foreign = [
        f"{path.name}: {name}"
        for path in modules
        for name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_the_guard_sees_a_foreign_import():
    tree = ast.parse("import json\nimport numpy.linalg\nfrom . import nfa\nfrom hypothesis import given\n")
    names = _absolute_imports(tree)
    assert names == ["json", "numpy.linalg", "hypothesis"]
    assert [n for n in names if n.partition(".")[0] not in sys.stdlib_module_names] == [
        "numpy.linalg", "hypothesis"
    ]
