"""Facts are recorded on a value only by the kernel that builds it.

A value's ``__dict__`` holds its fields and at most one recorded fact: the
rows that ``nfa._from_rows`` records on the DFA a kernel built (and a
grammar's hash, which ``Cfg.__hash__`` keeps). An index attached later to a
value that a walk merely reads was measured at +39 MB with no gain, so no
other code writes to an object's ``__dict__``, and ``object.__setattr__``
and ``setattr`` set declared fields only.

A value stored as rows has no ``transitions`` until something reads them:
``Nfa.__getattr__`` then builds them from the rows and sets the field. That
is the one write to a value after its construction that the guard accepts.
Any field set from a ``__getattr__`` counts as a write, so that filling in
another field, or any key, on first read is caught.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cflsep"

ALLOWED = {"nfa.py: _from_rows", "grammar.py: Cfg.__hash__", "nfa.py: Nfa.__getattr__ sets transitions"}

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


def _attr_call(node: ast.AST) -> tuple[str, object] | None:
    """For a call of ``object.__setattr__``/``setattr`` or of a ``delattr``:
    ``"set"`` or ``"del"`` and the attribute it names, ``None`` when that is
    no constant."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "object":
        name = func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    else:
        return None
    named = node.args[1] if len(node.args) > 1 else None
    attr = named.value if isinstance(named, ast.Constant) else None
    if name in ("__delattr__", "delattr"):
        return "del", attr
    if name in ("__setattr__", "setattr"):
        return "set", attr
    return None


def _is_foreign_setattr(node: ast.AST, fields: set[str]) -> bool:
    """A call of ``object.__setattr__``/``setattr`` (or a ``delattr``) that
    does not name a declared field."""
    call = _attr_call(node)
    return call is not None and (call[0] == "del" or call[1] not in fields)


def _field_set(node: ast.AST, fields: set[str]) -> str | None:
    """The declared field that a call of ``object.__setattr__``/``setattr``
    sets, if it is one."""
    call = _attr_call(node)
    return call[1] if call is not None and call[0] == "set" and call[1] in fields else None


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
    """The qualified name of the function around each write, with its line;
    a field set from a ``__getattr__`` adds ``sets`` and the field."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope += (node.name,)
        if _is_dict_write(node) or _is_foreign_setattr(node, fields):
            found.append((".".join(scope), node.lineno))
        elif scope[-1:] == ("__getattr__",) and (field := _field_set(node, fields)):
            found.append((f"{'.'.join(scope)} sets {field}", node.lineno))
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
    transitions: frozenset

    def __getattr__(self, name):
        object.__setattr__(self, "transitions", frozenset())
        object.__setattr__(self, "num_states", 0)
        setattr(self, "transitions", frozenset())
        self.__dict__["_index"] = {}
        return self.transitions

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
    assert _fields(tree) == {"num_states", "transitions"}
    found = _writers(tree, _fields(tree))
    assert found == [
        ("Nfa.__getattr__ sets transitions", 7), ("Nfa.__getattr__ sets num_states", 8),
        ("Nfa.__getattr__ sets transitions", 9), ("Nfa.__getattr__", 10),
        ("Nfa.has_epsilon", 15), ("trim", 20), ("index", 24), ("index", 25), ("index", 26),
        ("index", 27), ("index", 28),
    ]
    # of what a __getattr__ writes, only the transitions pass the guard
    rejected = {f"nfa.py: {where}" for where, _ in found[:4]} - ALLOWED
    assert rejected == {"nfa.py: Nfa.__getattr__ sets num_states", "nfa.py: Nfa.__getattr__"}
