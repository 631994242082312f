"""The runtime depends on the standard library alone, and importing it
loads none of the machinery behind ``dataclasses``."""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cflsep"

# dataclasses and the modules it pulls in: a fixed cost of every cflsep command
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


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


def test_import_loads_no_dataclasses_machinery():
    # a fresh isolated interpreter, so that nothing the test run imported counts
    probe = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import cflsep; "
        f"print(cflsep.__file__); print(*[m for m in {HEAVY!r} if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", probe], capture_output=True, text=True, check=True, timeout=60
    ).stdout.splitlines()
    assert out == [str(PACKAGE / "__init__.py"), ""]
