"""The package exports what it names and defines no private helper that only
the tests call."""

import ast
from pathlib import Path

import cflsep

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cflsep"


def test_star_import_binds_every_name_in_all():
    namespace: dict = {}
    exec("from cflsep import *", namespace)  # a stale name raises AttributeError here
    assert sorted(set(cflsep.__all__) - set(namespace)) == []


def _unreferenced_private_helpers(sources: dict[str, str]) -> list[str]:
    """Each top-level ``_``-prefixed function or class of ``sources`` (module
    name to text) that no module names, as a name, an attribute or an
    imported name, outside the helper's own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")):
                continue
            inside = {id(n) for n in ast.walk(node)}
            named = {
                getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
                for t in trees.values()
                for n in ast.walk(t)
                if id(n) not in inside and isinstance(n, (ast.Name, ast.Attribute, ast.alias))
            }
            if node.name not in named:
                unused.append(f"{module}: {node.name}")
    return unused


def test_every_private_helper_has_a_package_caller():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) >= 9
    assert _unreferenced_private_helpers(sources) == []


def test_the_guard_sees_a_helper_only_its_own_body_calls():
    sources = {
        "a.py": "def _used():\n    return 1\n\ndef _recursive(n):\n    return _recursive(n - 1)\n\nclass _Alone:\n    pass\n",
        "b.py": "from .a import _used\n\ndef f():\n    return _used()\n",
    }
    assert _unreferenced_private_helpers(sources) == ["a.py: _recursive", "a.py: _Alone"]
