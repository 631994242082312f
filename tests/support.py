"""Shared helpers for the test suite: tiny grammars, random generators,
and brute-force language predicates that stay independent of the library
code they check."""

from __future__ import annotations

import copy
import itertools
import pickle
import random
from pathlib import Path

from cflsep.grammar import Cfg, Production, nt, t
from cflsep.grammar_io import parse_file
from cflsep.nfa import Nfa

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str) -> list[Cfg]:
    return parse_file((FIXTURES / name).read_text())


def grammar(text: str) -> Cfg:
    """Single grammar from an inline block."""
    (cfg,) = parse_file(text)
    return cfg


# a^i b^(i+1), the running refinement example
AIBI1 = grammar('grammar L { start S; S -> "a" S "b" | "b"; }')

# all palindromes over {a, b}
PALINDROME = grammar(
    'grammar Pal { start A; A -> "a" A "a" | "b" A "b" | "a" | "b" | ; }'
)


# disjoint languages where one grammar's terminal is spelled like the other's
# start symbol: T* T against a* b
NAME_CLASH = (
    'grammar Tees { start S; S -> "T" | "T" S; }\n'
    'grammar Ab { start T; T -> "a" T | "b"; }\n'
)


# deeper than Python's default recursion limit: one rule of 1200 symbols
# (the word a^1200), and 1200 nonterminals each nesting the next (a^1200 b)
LONG_RULE = 'grammar Long { start S; S -> ' + ' '.join(['"a"'] * 1200) + '; }'
DEEP_CHAIN = (
    "grammar Deep { start N0; "
    + " ".join(f'N{i} -> "a" N{i + 1};' for i in range(1200))
    + ' N1200 -> "b"; }'
)


def render(grammars: list[Cfg], names: list[str] | None = None) -> str:
    """Grammar file text for ``grammars`` under ``names`` (default ``G1``,
    ``G2``, ...). Nothing is renamed or checked, so every name and terminal
    must be one the format can spell. A nonterminal without productions is
    written ``X -> X;``, which declares it and derives no word."""
    names = names or [f"G{i + 1}" for i in range(len(grammars))]
    blocks = []
    for name, g in zip(names, grammars):
        lines = [f"grammar {name} {{", f"  start {g.start};"]
        for v in g.variables:
            alts = [
                " ".join(f'"{s.name}"' if s.terminal else s.name for s in p.rhs)
                for p in g.productions
                if p.lhs == v
            ]
            lines.append(f"  {v} -> {' | '.join(alts or [v])};")
        blocks.append("\n".join(lines) + "\n}\n")
    return "\n".join(blocks)


def rebuild(value, **changes):
    """``value`` built anew through its class's public constructor, with
    ``changes`` to its fields: the constructor checks the result again, and
    the result records nothing that ``value`` recorded."""
    fields = {name: getattr(value, name) for name in type(value).__match_args__}
    return type(value)(**{**fields, **changes})


def check_stored_as_rows(v: Nfa, transitions: frozenset) -> None:
    """``v`` is stored as rows alone and reads as ``transitions`` once they
    are built: equal and hashed like its ``Nfa(...)`` rebuild, and pickled,
    copied and deep-copied with its rows, before and after the build."""
    assert "_rows" in vars(v) and "transitions" not in vars(v)
    assert getattr(v, "nope", None) is None
    plain = Nfa(v.num_states, v.alphabet, transitions, v.initial, v.accepting)
    assert "_rows" not in vars(plain)
    rows = copy.deepcopy(vars(v)["_rows"])
    lazy = [pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)]
    for w in [v] + lazy:  # the hash reads no transitions
        assert vars(w)["_rows"] == rows and hash(w) == hash(plain) and "transitions" not in vars(w)
    for w in lazy:
        assert w == plain and plain == w
    assert v == plain and plain == v
    assert vars(v)["transitions"] == transitions and v.transitions is vars(v)["transitions"]
    built = [pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)]
    for w in [v] + lazy + built:
        assert vars(w)["_rows"] == rows and vars(w)["transitions"] == transitions
        assert w == plain and hash(w) == hash(plain)
    assert getattr(v, "nope", None) is None


def words_upto(alphabet: tuple[str, ...], max_len: int):
    for n in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def hand_nfa(n: int, alphabet: tuple[str, ...], trans, initial: int, accepting) -> Nfa:
    return Nfa(n, alphabet, frozenset(trans), initial, frozenset(accepting))


def random_cfg(
    rng: random.Random,
    alphabet: tuple[str, ...] = ("a", "b"),
    variables: tuple[str, ...] = ("S", "A", "B"),
) -> Cfg:
    names = variables[: rng.randint(1, 3)]
    prods = []
    for v in names:
        for _ in range(rng.randint(1, 3)):
            length = rng.choice((0, 1, 1, 2, 2, 3))
            rhs = tuple(
                t(rng.choice(alphabet))
                if rng.random() < 0.65
                else nt(rng.choice(names))
                for _ in range(length)
            )
            prods.append(Production(v, rhs))
    return Cfg(names, alphabet, tuple(prods), names[0])


def random_nfa(
    rng: random.Random,
    alphabet: tuple[str, ...] = ("a", "b"),
    max_states: int = 4,
    allow_eps: bool = True,
    edges_per_state: int = 2,
) -> Nfa:
    n = rng.randint(1, max_states)
    transitions = set()
    for _ in range(rng.randint(0, edges_per_state * n + 2)):
        sym = None if allow_eps and rng.random() < 0.15 else rng.choice(alphabet)
        transitions.add((rng.randrange(n), sym, rng.randrange(n)))
    accepting = frozenset(q for q in range(n) if rng.random() < 0.4)
    return Nfa(n, alphabet, frozenset(transitions), 0, accepting)


def dfa_grammar(
    delta: dict[tuple[int, str], int], accepting: set[int], n_states: int,
    alphabet: tuple[str, ...],
) -> Cfg:
    """Right-linear grammar for the language of a (total) DFA; used to hand
    the engine a regular language as a CFG."""
    prods = []
    for (q, x), r in sorted(delta.items()):
        prods.append(Production(f"Q{q}", (t(x), nt(f"Q{r}"))))
    for q in sorted(accepting):
        prods.append(Production(f"Q{q}", ()))
    names = tuple(f"Q{i}" for i in range(n_states))
    return Cfg(names, alphabet, tuple(prods), "Q0")


def saturation_state(sat) -> tuple:
    """What a revert must restore of a pre* saturator: its journal, ``done``,
    ``goal_met`` and both row views, without the empty rows that a lookup or
    a revert leaves behind."""

    def rows(view):
        return [{x: frozenset(states) for x, states in row.items() if states} for row in view]

    return list(sat.journal), sat.done, sat.goal_met, rows(sat.by_start), rows(sat.by_end)


def truncate(a: Nfa, max_len: int) -> Nfa:
    """Restrict an automaton to its words of length at most ``max_len`` by
    product with a line of length counters."""
    numbering: dict[tuple[int, int], int] = {}

    def state(q: int, k: int) -> int:
        key = (q, k)
        if key not in numbering:
            numbering[key] = len(numbering)
        return numbering[key]

    initial = state(a.initial, 0)
    transitions: set[tuple[int, str | None, int]] = set()
    for k in range(max_len + 1):
        for q, x, r in a.transitions:
            if x is None:
                transitions.add((state(q, k), None, state(r, k)))
            elif k < max_len:
                transitions.add((state(q, k), x, state(r, k + 1)))
    accepting = frozenset(
        idx for (q, _), idx in numbering.items() if q in a.accepting
    )
    return Nfa(len(numbering), a.alphabet, frozenset(transitions), initial, accepting)


def eps_edges_for_ranges(
    word: tuple[str, ...], ranges: frozenset[tuple[int, int]]
) -> set[tuple[int, str | None, int]]:
    """Constructive star-to-epsilon translation: edges on the chain of
    ``word`` whose automaton recognizes the same language as starring the
    given ranges. Processes ranges innermost-first; for each range (i, j)
    adds the skip edge (i, eps, j) and, for every chain position k in
    (i, j] that can already reach j by epsilon moves, the repeat edge
    (k-1, word[k-1], i)."""
    edges: set[tuple[int, str | None, int]] = set()
    eps_pairs: set[tuple[int, int]] = set()
    for i, j in sorted(ranges, key=lambda r: (r[1] - r[0], r[0])):
        reach = {j}
        changed = True
        while changed:
            changed = False
            for a, b in eps_pairs:
                if b in reach and a not in reach and i <= a and b <= j:
                    reach.add(a)
                    changed = True
        for k in range(i + 1, j + 1):
            if k in reach:
                edges.add((k - 1, word[k - 1], i))
        eps_pairs.add((i, j))
        edges.add((i, None, j))
    return edges
