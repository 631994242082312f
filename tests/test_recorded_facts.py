"""Facts are recorded on a value only by the kernel that builds it.

A value's ``__dict__`` holds its fields and at most one recorded fact: the
rows that ``nfa._from_rows`` records on the DFA a kernel built (and a
grammar's hash, which ``Cfg.__hash__`` keeps). An index attached later to a
value that a walk merely reads was measured at +39 MB with no gain, so no
other code writes to an object's ``__dict__``, and ``object.__setattr__``
and ``setattr`` set declared fields only.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cflsep"

ALLOWED = {"nfa.py: _from_rows", "grammar.py: Cfg.__hash__"}

# dict methods that change the dict they are called on
_MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _is_dict_of(node: ast.AST) -> bool:
    """``x.__dict__`` or ``vars(x)``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "__dict__"
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars"


def _is_dict_write(node: ast.AST) -> bool:
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
        targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
        return any(
            isinstance(t, ast.Subscript) and _is_dict_of(t.value)
            or isinstance(t, ast.Attribute) and t.attr == "__dict__"
            for t in targets
        )
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _MUTATORS
        and _is_dict_of(node.func.value)
    )


def _is_foreign_setattr(node: ast.AST, fields: set[str]) -> bool:
    """A call of ``object.__setattr__``/``setattr`` (or a ``delattr``) that
    does not name a declared field."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "object":
        name = func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    else:
        return False
    if name in ("__delattr__", "delattr"):
        return True
    if name not in ("__setattr__", "setattr"):
        return False
    named = node.args[1] if len(node.args) > 1 else None
    return not (isinstance(named, ast.Constant) and named.value in fields)


def _fields(tree: ast.AST) -> set[str]:
    """The names a class body declares with an annotation."""
    return {
        stmt.target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }


def _writers(tree: ast.AST, fields: set[str]) -> list[tuple[str, int]]:
    """The qualified name of the function around each write, with its line."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope += (node.name,)
        if _is_dict_write(node) or _is_foreign_setattr(node, fields):
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_the_building_kernel_records_facts_on_a_value():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    assert len(trees) >= 9
    fields = set().union(*map(_fields, trees.values()))
    assert {"num_states", "alphabet", "transitions", "initial", "accepting"} <= fields
    writers = {
        f"{name}: {where}": line for name, tree in trees.items() for where, line in _writers(tree, fields)
    }
    assert set(writers) == ALLOWED, writers


_RECORDERS = '''
class Nfa:
    num_states: int

    def has_epsilon(self):
        if "_has_epsilon" not in self.__dict__:
            self.__dict__["_has_epsilon"] = any(x is None for _, x, _ in self.transitions)
        return self.__dict__["_has_epsilon"]


def trim(a):
    a.__dict__["_trimmed"] = True


def index(a, name):
    vars(a).setdefault("_index", {})
    a.__dict__.update(_index={})
    object.__setattr__(a, "_index", {})
    setattr(a, name, 1)
    del a.__dict__["_index"]


def build(a):
    object.__setattr__(a, "num_states", 1)
    return a.__dict__.get("_rows"), vars(a)["num_states"]
'''


def test_the_guard_sees_a_recorded_fact():
    tree = ast.parse(_RECORDERS)
    assert _fields(tree) == {"num_states"}
    assert _writers(tree, _fields(tree)) == [
        ("Nfa.has_epsilon", 7), ("trim", 12), ("index", 16), ("index", 17), ("index", 18),
        ("index", 19), ("index", 20),
    ]
