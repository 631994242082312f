"""The package exports what it names and defines no private helper that only
the tests call."""

import ast
import copy
import pickle
from pathlib import Path

import pytest

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


_NFA = (
    "Nfa(num_states=2, alphabet=('a',), transitions=frozenset({(0, 'a', 1)}), "
    "initial=0, accepting=frozenset({1}))"
)


def _values() -> dict[type, tuple[tuple, dict, str]]:
    """For each exported value type: positional and keyword arguments that
    build one value, and that value's literal repr."""
    a, s = cflsep.Symbol("a", True), cflsep.Symbol("S", False)
    prod = cflsep.Production("S", (a, s))
    nfa = (2, ("a",), frozenset({(0, "a", 1)}), 0, frozenset({1}))
    return {
        cflsep.Symbol: (("a", True), {}, '"a"'),
        cflsep.Production: (("S",), {"rhs": (a, s)}, 'S -> "a" S'),
        cflsep.Cfg: (
            (("S",), ("a",)), {"productions": (prod,), "start": "S"},
            "Cfg(variables=('S',), terminals=('a',), productions=(S -> \"a\" S,), start='S')",
        ),
        cflsep.Nfa: (nfa, {}, _NFA),
        cflsep.Config: (
            ("nederhof",), {"strategy": "greedy-eps"},
            "Config(abstraction='nederhof', strategy='greedy-eps', max_refinements=100)",
        ),
        cflsep.Separable: (
            ((cflsep.Nfa(*nfa),),), {"iterations": 2}, f"Separable(approximations=({_NFA},), iterations=2)"
        ),
        cflsep.Overlap: ((("a", "b"), 1), {}, "Overlap(witness=('a', 'b'), iterations=1)"),
        cflsep.Unknown: (("budget", 3), {}, "Unknown(reason='budget', iterations=3)"),
        cflsep.StarGeneralization: (
            (("a", "b"),), {"ranges": frozenset({(0, 1)})},
            "StarGeneralization(word=('a', 'b'), ranges=frozenset({(0, 1)}))",
        ),
    }


def test_exported_values_are_immutable_records():
    values = _values()
    assert len(values) == 9
    for cls, (args, kwargs, text) in values.items():
        v = cls(*args, **kwargs)
        assert repr(v) == text
        fields = dict(zip(cls.__match_args__, args)) | kwargs
        by_keyword, by_position = cls(**fields), cls(*fields.values())
        assert v == by_keyword == by_position and hash(v) == hash(by_keyword) == hash(by_position)
        assert all(getattr(v, name) == value for name, value in fields.items())
        for name in cls.__match_args__:
            with pytest.raises(AttributeError):
                setattr(v, name, None)
            with pytest.raises(AttributeError):
                delattr(v, name)
        with pytest.raises(AttributeError):
            v.extra = None
        for clone in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert type(clone) is cls and clone == v and hash(clone) == hash(v) and repr(clone) == text
        # equal only to a value of the same class
        assert all(v != cls2(*args2, **kwargs2) for cls2, (args2, kwargs2, _) in values.items() if cls2 is not cls)
    assert repr(cflsep.Config()) == values[cflsep.Config][2]
    assert cflsep.Separable((), 0) != cflsep.Overlap((), 0)
    assert cflsep.Overlap((), 0) == cflsep.Overlap((), 0) != cflsep.Overlap((), 1)
    match cflsep.Overlap(("a",), 4):
        case cflsep.Overlap(w, k):
            assert (w, k) == (("a",), 4)
    match cflsep.Unknown("timeout", 2):
        case cflsep.Separable(_, _) | cflsep.Overlap(_, _):
            raise AssertionError("matched another verdict")
        case cflsep.Unknown(reason, k):
            assert (reason, k) == ("timeout", 2)
    # a partition holds a dict, so it cannot be hashed
    partition = cflsep.sccs(cflsep.Cfg(("S",), ("a",), (), "S"))
    with pytest.raises(TypeError):
        hash(partition)
    assert partition == pickle.loads(pickle.dumps(partition)) == copy.deepcopy(partition)
