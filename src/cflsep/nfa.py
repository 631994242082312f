"""Finite automata with epsilon transitions, walked as deterministic rows.

States are dense integers local to each automaton, and values are immutable,
so automata can be shared freely. An operation whose result would equal its
argument returns the argument itself: ``trim`` of a trim automaton,
``eliminate_epsilon`` of an epsilon-free one. A value records one fact in
its ``__dict__``: the successor rows of a DFA that a kernel built row by row
(``_minimal``, ``complement``, ``determinize``, the product walk), recorded
by ``_from_rows`` and never attached later; they take no part in ``==`` and
``hash``. Labels are terminal names (arbitrary strings) or ``None`` for
epsilon.

Every walk reads deterministic rows: ``rows[q][c]`` is the target of ``q``
on the symbol ``columns[c]``, -1 for none. ``_dfa`` hands a walk the rows
recorded on a value, or builds them from the transitions of an epsilon-free
DFA; any other operand of ``intersect``, ``difference``, ``minimize`` or
``shortest_common_word`` is first determinized by the subset construction
(Rabin & Scott 1959), which keeps its language. That construction is the
one behind ``complement`` too; it unions a subset's targets per column into
a set, so no result follows the hash-seeded order of the transitions.
``difference`` and ``minimize`` return the trimmed minimal DFA, numbered
canonically. Reachability (``trim``, ``is_empty``) runs over list adjacency.

Validation happens at the public boundary, where values come in from
outside: ``Nfa(...)`` and ``dataclasses.replace`` check that alphabet symbols
are unique strings, that the initial state, the accepting states and every
transition endpoint are in range, and that every label is epsilon or in the
alphabet. A value whose states a kernel numbered itself is valid by
construction and is built directly by ``_nfa``, which checks nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, repeat
from operator import contains
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Nfa:
    num_states: int
    alphabet: tuple[str, ...]
    transitions: frozenset[tuple[int, str | None, int]]
    initial: int
    accepting: frozenset[int]

    def __post_init__(self) -> None:
        if not all(isinstance(x, str) for x in self.alphabet):
            raise ValueError("alphabet symbols must be strings")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet symbols must be unique")
        if not (0 <= self.initial < self.num_states):
            raise ValueError("initial state out of range")
        symbols = set(self.alphabet)
        for q, x, r in self.transitions:
            if not (0 <= q < self.num_states and 0 <= r < self.num_states):
                raise ValueError(f"transition endpoint out of range: {(q, x, r)}")
            if x is not None and x not in symbols:
                raise ValueError(f"transition label {x!r} not in alphabet")
        for q in self.accepting:
            if not (0 <= q < self.num_states):
                raise ValueError("accepting state out of range")

    @property
    def states(self) -> range:
        return range(self.num_states)

    def has_epsilon(self) -> bool:  # a value with rows is an epsilon-free DFA
        return "_rows" not in self.__dict__ and any(x is None for _, x, _ in self.transitions)


def _nfa(
    num_states: int,
    alphabet: tuple[str, ...],
    transitions: frozenset[tuple[int, str | None, int]],
    initial: int,
    accepting: frozenset[int],
) -> Nfa:
    """An ``Nfa`` set up without the checks of ``__post_init__``, for kernels
    whose output is valid by construction. It sets the fields the way the
    frozen dataclass's own ``__init__`` does, and records nothing else."""
    a = object.__new__(Nfa)
    object.__setattr__(a, "num_states", num_states)
    object.__setattr__(a, "alphabet", alphabet)
    object.__setattr__(a, "transitions", transitions)
    object.__setattr__(a, "initial", initial)
    object.__setattr__(a, "accepting", accepting)
    return a


def _merge_alphabets(*alphabets: Sequence[str]) -> tuple[str, ...]:
    merged: list[str] = []
    seen: set[str] = set()
    for alpha in alphabets:
        for sym in alpha:
            if sym not in seen:
                seen.add(sym)
                merged.append(sym)
    return tuple(merged)


def _reach(seeds: Iterable[int], adjacency: list[list[int]]) -> bytearray:
    """The states reachable from ``seeds``: one byte per state, 1 if reached."""
    seen = bytearray(len(adjacency))
    stack = list(seeds)
    for q in stack:
        seen[q] = 1
    while stack:
        for r in adjacency[stack.pop()]:
            if not seen[r]:
                seen[r] = 1
                stack.append(r)
    return seen


def word_automaton(word: Sequence[str]) -> Nfa:
    """Chain automaton recognizing exactly ``word``: one transition per symbol."""
    word = tuple(word)
    transitions = frozenset((i, word[i], i + 1) for i in range(len(word)))
    return _nfa(len(word) + 1, _merge_alphabets(word), transitions, 0, frozenset({len(word)}))


def eliminate_epsilon(a: Nfa) -> Nfa:
    """Equivalent automaton without epsilon transitions; states preserved."""
    if not a.has_epsilon():
        return a
    eps: list[list[int]] = [[] for _ in a.states]
    edges: list[list[tuple[str, int]]] = [[] for _ in a.states]
    for q, x, r in a.transitions:
        if x is None:
            eps[q].append(r)
        else:
            edges[q].append((x, r))
    transitions: set[tuple[int, str | None, int]] = set()
    accepting: set[int] = set()
    for q in a.states:
        closure = {q}
        stack = [q]
        while stack:
            for r in eps[stack.pop()]:
                if r not in closure:
                    closure.add(r)
                    stack.append(r)
        for mid in closure:
            transitions.update((q, x, r) for x, r in edges[mid])
        if not closure.isdisjoint(a.accepting):
            accepting.add(q)
    return _nfa(a.num_states, a.alphabet, frozenset(transitions), a.initial, frozenset(accepting))


def trim(a: Nfa) -> Nfa:
    """Keep only states on some path initial -> accepting; renumber densely.
    Returns ``a`` itself when every state is useful."""
    forward: list[list[int]] = [[] for _ in a.states]
    backward: list[list[int]] = [[] for _ in a.states]
    for q, _, r in a.transitions:
        forward[q].append(r)
        backward[r].append(q)
    reached, coreached = _reach((a.initial,), forward), _reach(a.accepting, backward)
    useful = [q for q in a.states if reached[q] and coreached[q] or q == a.initial]
    if len(useful) < a.num_states:  # else the renumbering is the identity
        renum = [-1] * a.num_states
        for i, q in enumerate(useful):
            renum[q] = i
        transitions = frozenset(
            (renum[q], x, renum[r])
            for q, x, r in a.transitions
            if renum[q] >= 0 and renum[r] >= 0
        )
        accepting = frozenset(renum[q] for q in a.accepting if renum[q] >= 0)
        return _nfa(len(useful), a.alphabet, transitions, renum[a.initial], accepting)
    return a


def _from_rows(alphabet: tuple[str, ...], rows: list[list[int]], accepting: frozenset[int]) -> Nfa:
    """The epsilon-free DFA with initial state 0 and the edge
    ``q -alphabet[c]-> rows[q][c]`` for each ``rows[q][c] >= 0``, its rows
    recorded: the one place a value gets a fact beyond its fields."""
    transitions = frozenset(
        (q, x, r) for q, row in enumerate(rows) for x, r in zip(alphabet, row) if r >= 0
    )
    a = _nfa(len(rows), alphabet, transitions, 0, accepting)
    a.__dict__["_rows"] = rows
    return a


def _subsets(
    a: Nfa, alpha: tuple[str, ...], numbering: dict[frozenset[int], int]
) -> tuple[list[list[int]], list[frozenset[int]]]:
    """The subset construction of the epsilon-free ``a`` over ``alpha``
    (Rabin & Scott 1959): the subsets reached from ``{a.initial}``, numbered
    breadth-first, symbols in alphabet order, and one row per subset.
    ``numbering`` starts empty, so that the empty subset is a sink state, or
    maps it to -1, so that it is no state. ``table[q][c]`` holds the targets
    of ``q``'s edges on ``alpha[c]``; each column of a row becomes a set."""
    index = {x: c for c, x in enumerate(alpha)}
    table: list[list[tuple[int, ...]]] = [[()] * len(alpha) for _ in a.states]
    for q, x, r in a.transitions:
        c = index.get(x)
        if c is not None:
            table[q][c] += (r,)
    subsets = [frozenset({a.initial})]
    numbering[subsets[0]] = 0
    rows: list[list[int]] = []
    for subset in subsets:  # subsets grows breadth-first as it is read
        if len(subset) == 1:
            targets = table[next(iter(subset))]
        else:  # per column, the union over the subset; the sink has none
            rows_in = map(table.__getitem__, subset)
            targets = map(chain.from_iterable, zip(repeat((), len(alpha)), *rows_in))
        row = []
        for nxt in map(frozenset, targets):
            dst = numbering.setdefault(nxt, len(subsets))
            if dst == len(subsets):
                subsets.append(nxt)
            row.append(dst)
        rows.append(row)
    return rows, subsets


def determinize(a: Nfa) -> Nfa:
    """The subset construction of ``trim(eliminate_epsilon(a))``: a trimmed
    DFA of ``L(a)`` over ``a``'s alphabet, without the empty subset."""
    a = trim(eliminate_epsilon(a))
    rows, subsets = _subsets(a, a.alphabet, {frozenset(): -1})
    accepting = frozenset(i for i, s in enumerate(subsets) if not a.accepting.isdisjoint(s))
    return _from_rows(a.alphabet, rows, accepting)


def _dfa(a: Nfa, columns: tuple[str, ...]) -> tuple[Nfa, list[list[int]]]:
    """An automaton of ``L(a)`` and its rows over ``columns`` (a symbol fills
    its first column): the rows recorded on ``a`` when ``a.alphabet`` starts
    ``columns`` (the walks zip rows, so a short row just ends early), else
    rows built, not recorded, from ``eliminate_epsilon(a)``'s transitions, or
    from ``determinize(a)`` once a column gets a second target."""
    rows = a.__dict__.get("_rows")
    if rows is not None and columns[: len(a.alphabet)] == a.alphabet:
        return a, rows
    a = eliminate_epsilon(a)
    index: dict[str, int] = {}
    for c, x in enumerate(columns):
        index.setdefault(x, c)
    rows = [[-1] * len(columns) for _ in a.states]
    for q, x, r in a.transitions:
        c = index.get(x)
        if c is not None:
            row = rows[q]
            if row[c] >= 0:
                return _dfa(determinize(a), columns)
            row[c] = r
    return a, rows


def minimize(a: Nfa) -> Nfa:
    """The trimmed minimal DFA of ``L(a)``: the front end of ``_minimal``, over
    the rows of ``_dfa(a, a.alphabet)``."""
    a, rows = _dfa(a, a.alphabet)
    return _minimal(a.alphabet, rows, a.initial, a.accepting)


def _minimal(
    alphabet: tuple[str, ...], rows: list[list[int]], initial: int, accepting: frozenset[int]
) -> Nfa:
    """The trimmed minimal DFA of the DFA whose state ``q`` has the edge
    ``q -alphabet[c]-> rows[q][c]`` for each ``rows[q][c] >= 0``.

    A backward reach from the accepting states finds the dead states; a
    missing edge counts as an edge to them. Moore's partition refinement
    merges equivalent states, and the classes are numbered breadth-first from
    the initial one, symbols in alphabet order, so the value depends only on
    the language and the alphabet. The empty language is one edgeless state.
    """
    pred: list[list[int]] = [[] for _ in rows]
    for q, row in enumerate(rows):
        for r in row:
            if r >= 0:
                pred[r].append(q)
    # cls[q] is q's class; the dead states, and the missing target at index
    # -1 one past the states, are class -1
    cls = [-1] * (len(rows) + 1)
    stack = list(accepting)
    for q in stack:
        cls[q] = 1
    while stack:
        for p in pred[stack.pop()]:
            if cls[p] < 0:
                cls[p] = 0
                stack.append(p)
    live = [q for q in range(len(rows)) if cls[q] >= 0]
    count = 1 + (0 < len(accepting) < len(live))
    # split by the classes of the successors until stable; a partition with
    # one class per live state cannot split further, so it needs no round
    # to confirm it
    while count < len(live):
        keys: dict[tuple[int, ...], int] = {}
        refined = cls[:]
        get = cls.__getitem__
        for q in live:
            refined[q] = keys.setdefault((cls[q], *map(get, rows[q])), len(keys))
        cls = refined
        if len(keys) == count:
            break
        count = len(keys)
    order = [initial] if cls[initial] >= 0 else []  # one state per class
    number = {cls[q]: 0 for q in order}
    out: list[list[int]] = []
    for q in order:  # order grows breadth-first as it is read
        row = []
        for r in rows[q]:
            if cls[r] < 0:
                row.append(-1)
                continue
            dst = number.setdefault(cls[r], len(order))
            if dst == len(order):
                order.append(r)
            row.append(dst)
        out.append(row)
    final = frozenset(i for i, q in enumerate(order) if q in accepting)
    # the empty language is one edgeless state
    return _from_rows(alphabet, out or [[-1] * len(alphabet)], final)


def complement(a: Nfa, alphabet: Sequence[str] | None = None) -> Nfa:
    """Automaton for the complement of ``L(a)`` relative to ``alphabet``*.

    Defaults to the automaton's own alphabet; callers comparing languages
    over a wider alphabet must pass it explicitly. This is the subset
    construction, completed with a sink state (the empty subset) so that its
    transition function is total, accepting the subsets with no accepting
    state of ``a``.
    """
    alpha = a.alphabet if alphabet is None else _merge_alphabets(alphabet, a.alphabet)
    a = eliminate_epsilon(a)
    rows, subsets = _subsets(a, alpha, {})
    accepting = frozenset(i for i, s in enumerate(subsets) if a.accepting.isdisjoint(s))
    return _from_rows(alpha, rows, accepting)


def _product_rows(a: Nfa, b: Nfa) -> tuple[tuple[str, ...], list[list[int]], frozenset[int]]:
    """The product walk of ``L(a) ∩ L(b)`` over the joint alphabet, on the
    rows that ``_dfa`` gives over it.

    States are the pairs reached, keyed ``qa * nb + qb`` and numbered in
    discovery order: breadth-first, symbols in alphabet order. Returns the
    alphabet, one row per state, and the accepting states.
    """
    alpha = _merge_alphabets(a.alphabet, b.alphabet)
    a, rows_a = _dfa(a, alpha)
    b, rows_b = _dfa(b, alpha)
    nb = b.num_states
    keys = [a.initial * nb + b.initial]
    index = {keys[0]: 0}
    rows: list[list[int]] = []
    for key in keys:  # keys grows breadth-first as it is read
        qa, qb = divmod(key, nb)
        row = [-1] * len(alpha)
        for c, (ra, rb) in enumerate(zip(rows_a[qa], rows_b[qb])):
            if ra >= 0 and rb >= 0:
                pair = ra * nb + rb
                dst = row[c] = index.setdefault(pair, len(keys))
                if dst == len(keys):
                    keys.append(pair)
        rows.append(row)
    accepting = frozenset(
        i for i, key in enumerate(keys) if key // nb in a.accepting and key % nb in b.accepting
    )
    return alpha, rows, accepting


def intersect(a: Nfa, b: Nfa) -> Nfa:
    """Product construction; recognizes ``L(a) ∩ L(b)``, trimmed. It walks
    the DFAs of ``_dfa``, so an NFA operand is determinized first."""
    return trim(_from_rows(*_product_rows(a, b)))


def union(*parts: Nfa) -> Nfa:
    """Recognizes the union of the parts' languages (fresh initial state with
    epsilon fan-out)."""
    transitions: set[tuple[int, str | None, int]] = set()
    accepting: set[int] = set()
    offset = 1
    for p in parts:
        transitions.add((0, None, offset + p.initial))
        transitions |= {(q + offset, x, r + offset) for q, x, r in p.transitions}
        accepting |= {q + offset for q in p.accepting}
        offset += p.num_states
    alpha = _merge_alphabets(*(p.alphabet for p in parts))
    return _nfa(offset, alpha, frozenset(transitions), 0, frozenset(accepting))


def difference(a: Nfa, b: Nfa) -> Nfa:
    """Recognizes ``L(a) \\ L(b)``; ``b`` is complemented over the joint
    alphabet. Returns the trimmed minimal DFA of the product, whose rows go
    from the product walk straight to ``_minimal``."""
    alpha = _merge_alphabets(a.alphabet, b.alphabet)
    alpha, rows, accepting = _product_rows(a, complement(b, alpha))
    return _minimal(alpha, rows, 0, accepting)


def is_empty(a: Nfa) -> bool:
    out: list[list[int]] = [[] for _ in a.states]
    for q, _, r in a.transitions:
        out[q].append(r)
    reached = _reach((a.initial,), out)
    return not any(reached[q] for q in a.accepting)


def shortest_common_word(
    automata: Sequence[Nfa], alphabet: Sequence[str]
) -> tuple[str, ...] | None:
    """Shortest word accepted by every automaton, lexicographically least in
    ``alphabet`` order; ``None`` iff the intersection is empty.

    One breadth-first walk, symbols in alphabet order, over state tuples of
    the automata that ``_dfa`` gives over ``alphabet`` (an NFA is
    determinized, which keeps its language), with a parent pointer per tuple.
    A word reaches one tuple, so a tuple is first reached by its
    (length, lex)-least word, and the first accepting tuple discovered ends
    the least common word. Neither dead nor unreachable states change that,
    so nothing is trimmed. The product is never materialized. Labels outside
    ``alphabet`` are never walked.
    """
    columns = tuple(alphabet)
    comps = [_dfa(a, columns) for a in automata]
    tables = [rows for _, rows in comps]
    finals = [c.accepting for c, _ in comps]
    start = tuple(c.initial for c, _ in comps)
    # the tuple it was reached from, and the column of the symbol read
    parent: dict[tuple[int, ...], tuple[tuple[int, ...], int] | None] = {start: None}

    def word_to(state: tuple[int, ...]) -> tuple[str, ...]:
        word: list[str] = []
        while (link := parent[state]) is not None:
            state, c = link
            word.append(columns[c])
        return tuple(reversed(word))

    if all(map(contains, finals, start)):
        return ()
    queue = [start]
    for state in queue:  # queue grows breadth-first as it is read
        # the tuple's rows side by side: per column, the target of every component
        for c, combo in enumerate(zip(*map(list.__getitem__, tables, state))):
            if -1 not in combo and combo not in parent:
                parent[combo] = (state, c)
                if all(map(contains, finals, combo)):
                    return word_to(combo)
                queue.append(combo)
    return None


# a DOT ID that needs no quotes: a name (any non-ASCII character counts as a
# letter) or a numeral, but not a keyword; compiled on first use, not at import
_PLAIN_ID = r"(?:[A-Za-z_]|[^\x00-\x7f])(?:[A-Za-z_0-9]|[^\x00-\x7f])*|-?(\.[0-9]+|[0-9]+(\.[0-9]*)?)"
_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def _quoted(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(a: Nfa, name: str = "nfa") -> str:
    """GraphViz rendering: one node per state, doubled circle for accepting.
    ``name`` is quoted unless it is a plain DOT ID."""
    if not re.fullmatch(_PLAIN_ID, name) or name.lower() in _KEYWORDS:
        name = _quoted(name)
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  __start [shape=point, label=""];']
    for q in a.states:
        shape = "doublecircle" if q in a.accepting else "circle"
        lines.append(f'  q{q} [shape={shape}, label="{q}"];')
    lines.append(f"  __start -> q{a.initial};")
    for q, x, r in sorted(a.transitions, key=lambda t: (t[0], t[2], t[1] or "")):
        label = '"ε"' if x is None else _quoted(x)
        lines.append(f"  q{q} -> q{r} [label={label}];")
    lines.append("}")
    return "\n".join(lines)
