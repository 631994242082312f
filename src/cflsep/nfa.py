"""Nondeterministic finite automata with epsilon transitions.

States are dense integers local to each automaton, and values are immutable,
so automata can be shared freely. An operation whose result would equal its
argument returns the argument itself: ``trim`` of a trim automaton,
``eliminate_epsilon`` of an epsilon-free one. A value records two facts about
itself in its ``__dict__``: that ``trim`` returned it, and whether it has
epsilon edges. This is not a caching layer: both are booleans about an
immutable value, they take no part in ``==`` and ``hash``, and no index is
kept. Every walk builds its own successor table with ``_table``: per state,
one tuple of target states per alphabet column, sorted where a column has
several, so no result follows the hash-seeded iteration order of the
transitions. Reachability (``trim``, ``is_empty``) runs over list adjacency.
Labels are terminal names (arbitrary strings) or ``None`` for epsilon.
Determinization only happens inside complement/difference, which returns the
trimmed minimal DFA of a deterministic product; everything else stays
nondeterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, product, repeat
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

    def has_epsilon(self) -> bool:  # scanned once per value
        if "_has_epsilon" not in self.__dict__:
            self.__dict__["_has_epsilon"] = any(x is None for _, x, _ in self.transitions)
        return self.__dict__["_has_epsilon"]


def _merge_alphabets(*alphabets: Sequence[str]) -> tuple[str, ...]:
    merged: list[str] = []
    seen: set[str] = set()
    for alpha in alphabets:
        for sym in alpha:
            if sym not in seen:
                seen.add(sym)
                merged.append(sym)
    return tuple(merged)


def _table(a: Nfa, columns: Sequence[str]) -> list[list[tuple[int, ...]]]:
    """Successor table: ``table[q][c]`` holds the targets of ``q``'s edges on
    the symbol ``columns[c]``, sorted when there are several. Epsilon edges
    and labels outside ``columns`` are left out; a repeated symbol fills only
    its first column."""
    index: dict[str, int] = {}
    for c, x in enumerate(columns):
        index.setdefault(x, c)
    table: list[list[tuple[int, ...]]] = [[()] * len(columns) for _ in a.states]
    several = []
    for q, x, r in a.transitions:
        c = index.get(x)
        if c is not None:
            row = table[q]
            if row[c]:
                several.append((row, c))
                row[c] += (r,)
            else:
                row[c] = (r,)
    # the transitions iterate in a PYTHONHASHSEED-dependent order
    for row, c in several:
        row[c] = tuple(sorted(row[c]))
    return table


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
    return Nfa(len(word) + 1, _merge_alphabets(word), transitions, 0, frozenset({len(word)}))


def eliminate_epsilon(a: Nfa) -> Nfa:
    """Equivalent automaton without epsilon transitions; states preserved."""
    if not a.has_epsilon():
        return a
    eps: list[list[int]] = [[] for _ in a.states]
    for q, x, r in a.transitions:
        if x is None:
            eps[q].append(r)
    table = _table(a, a.alphabet)
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
            for x, targets in zip(a.alphabet, table[mid]):
                for r in targets:
                    transitions.add((q, x, r))
        if not closure.isdisjoint(a.accepting):
            accepting.add(q)
    return Nfa(a.num_states, a.alphabet, frozenset(transitions), a.initial, frozenset(accepting))


def trim(a: Nfa) -> Nfa:
    """Keep only states on some path initial -> accepting; renumber densely.

    Returns ``a`` itself when every state is useful, and marks what it returns
    as trimmed, so trimming a trimmed value does no work. A value known to be
    epsilon-free stays marked so.
    """
    if a.__dict__.get("_trimmed"):
        return a
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
        epsilon_free = a.__dict__.get("_has_epsilon") is False
        a = Nfa(len(useful), a.alphabet, transitions, renum[a.initial], accepting)
        if epsilon_free:
            a.__dict__["_has_epsilon"] = False
    a.__dict__["_trimmed"] = True
    return a


def minimize(a: Nfa) -> Nfa:
    """The trimmed minimal DFA of ``L(a)`` if ``a`` is an epsilon-free DFA,
    else ``trim(a)``. The front end of ``_minimal``: it builds the rows of
    the DFA from its successor table."""
    if a.has_epsilon():
        return trim(a)
    table = _table(a, a.alphabet)
    if any(len(targets) > 1 for row in table for targets in row):
        return trim(a)
    rows = [[targets[0] if targets else -1 for targets in row] for row in table]
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
    while live:  # split by the classes of the successors until stable
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
    transitions = []
    for src, q in enumerate(order):  # order grows breadth-first as it is read
        for x, r in zip(alphabet, rows[q]):
            if cls[r] >= 0:
                dst = number.setdefault(cls[r], len(order))
                if dst == len(order):
                    order.append(r)
                transitions.append((src, x, dst))
    final = frozenset(i for i, q in enumerate(order) if q in accepting)
    m = Nfa(max(len(order), 1), alphabet, frozenset(transitions), 0, final)
    m.__dict__.update(_trimmed=True, _has_epsilon=False)
    return m


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
    table = _table(a, alpha)

    subsets = [frozenset({a.initial})]
    numbering: dict[frozenset[int], int] = {subsets[0]: 0}
    transitions: list[tuple[int, str | None, int]] = []
    for src, subset in enumerate(subsets):  # subsets grows breadth-first as it is read
        if len(subset) == 1:
            targets = table[next(iter(subset))]
        else:  # per column, the union over the subset; the sink has none
            rows = map(table.__getitem__, subset)
            targets = map(chain.from_iterable, zip(repeat((), len(alpha)), *rows))
        for sym, nxt in zip(alpha, map(frozenset, targets)):
            if nxt not in numbering:
                numbering[nxt] = len(subsets)
                subsets.append(nxt)
            transitions.append((src, sym, numbering[nxt]))
    accepting = frozenset(
        idx for idx, subset in enumerate(subsets) if a.accepting.isdisjoint(subset)
    )
    comp = Nfa(len(subsets), alpha, frozenset(transitions), 0, accepting)
    comp.__dict__["_has_epsilon"] = False  # epsilon-free by construction: no scan
    return comp


def _product_rows(
    a: Nfa, b: Nfa
) -> tuple[tuple[str, ...], list[list[int]], list[tuple[int, int, int]], frozenset[int]]:
    """The product walk of ``L(a) ∩ L(b)`` over the joint alphabet.

    States are the pairs reached, keyed ``qa * nb + qb`` and numbered in
    discovery order: breadth-first, symbols in alphabet order, targets in
    increasing order. Returns the alphabet; one row per state with its first
    target per column, -1 for none; the further targets as (state, column,
    target), empty iff the product is deterministic; and the accepting
    states.
    """
    a = eliminate_epsilon(a)
    b = eliminate_epsilon(b)
    alpha = _merge_alphabets(a.alphabet, b.alphabet)
    table_a, table_b = _table(a, alpha), _table(b, alpha)
    nb = b.num_states
    keys = [a.initial * nb + b.initial]
    index = {keys[0]: 0}
    rows: list[list[int]] = []
    more: list[tuple[int, int, int]] = []
    for src, key in enumerate(keys):  # keys grows breadth-first as it is read
        qa, qb = divmod(key, nb)
        row = [-1] * len(alpha)
        for c, (targets_a, targets_b) in enumerate(zip(table_a[qa], table_b[qb])):
            if targets_a and targets_b:
                for ra in targets_a:
                    for rb in targets_b:
                        pair = ra * nb + rb
                        dst = index.setdefault(pair, len(keys))
                        if dst == len(keys):
                            keys.append(pair)
                        if row[c] < 0:
                            row[c] = dst
                        else:
                            more.append((src, c, dst))
        rows.append(row)
    accepting = frozenset(
        i for i, key in enumerate(keys) if key // nb in a.accepting and key % nb in b.accepting
    )
    return alpha, rows, more, accepting


def _as_nfa(
    alpha: tuple[str, ...],
    rows: list[list[int]],
    more: list[tuple[int, int, int]],
    accepting: frozenset[int],
) -> Nfa:
    """The automaton of a product walk, marked epsilon-free."""
    transitions = {(q, x, r) for q, row in enumerate(rows) for x, r in zip(alpha, row) if r >= 0}
    transitions.update((q, alpha[c], r) for q, c, r in more)
    product = Nfa(len(rows), alpha, frozenset(transitions), 0, accepting)
    product.__dict__["_has_epsilon"] = False  # epsilon-free by construction: no scan
    return product


def _product(a: Nfa, b: Nfa) -> Nfa:
    """Untrimmed ``L(a) ∩ L(b)``: the pairs reached, in discovery order."""
    return _as_nfa(*_product_rows(a, b))


def intersect(a: Nfa, b: Nfa) -> Nfa:
    """Product construction; recognizes ``L(a) ∩ L(b)``, trimmed."""
    return trim(_product(a, b))


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
    return Nfa(offset, alpha, frozenset(transitions), 0, frozenset(accepting))


def difference(a: Nfa, b: Nfa) -> Nfa:
    """Recognizes ``L(a) \\ L(b)``; ``b`` is complemented over the joint
    alphabet. A deterministic product gives its trimmed minimal DFA, whose
    rows go from the product walk straight to ``_minimal``; a
    nondeterministic one is only trimmed."""
    alpha = _merge_alphabets(a.alphabet, b.alphabet)
    alpha, rows, more, accepting = _product_rows(a, complement(b, alpha))
    if more:
        return trim(_as_nfa(alpha, rows, more, accepting))
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

    One breadth-first walk over state tuples of the trimmed, epsilon-free
    automata, with a parent pointer per tuple. Tuples are visited once, in
    groups: the group of word ``w`` holds the tuples whose (length,
    lex)-least word is ``w``, and groups are expanded in that word order,
    symbols in alphabet order. So the first accepting tuple discovered ends
    the least common word. Grouping matters: a word reaches several tuples
    at once, and expanding them one by one would put ``w b`` ahead of
    ``w a``. The product is never materialized. Labels outside ``alphabet``
    are never walked.
    """
    comps = [trim(eliminate_epsilon(a)) for a in automata]
    tables = [_table(c, alphabet) for c in comps]
    finals = [c.accepting for c in comps]
    start = tuple(c.initial for c in comps)
    # the tuple it was reached from, and the column of the symbol read
    parent: dict[tuple[int, ...], tuple[tuple[int, ...], int] | None] = {start: None}

    def word_to(state: tuple[int, ...]) -> tuple[str, ...]:
        word: list[str] = []
        while (link := parent[state]) is not None:
            state, c = link
            word.append(alphabet[c])
        return tuple(reversed(word))

    if all(map(contains, finals, start)):
        return ()
    queue = deque([[start]])
    while queue:
        group = queue.popleft()
        # each tuple's rows side by side: per column, the targets of every component
        columns = [list(zip(*map(list.__getitem__, tables, state))) for state in group]
        for c in range(len(alphabet)):
            reached: list[tuple[int, ...]] = []
            for state, targets in zip(group, columns):
                for combo in product(*targets[c]):
                    if combo not in parent:
                        parent[combo] = (state, c)
                        if all(map(contains, finals, combo)):
                            return word_to(combo)
                        reached.append(combo)
            if reached:
                queue.append(reached)
    return None


def to_dot(a: Nfa, name: str = "nfa") -> str:
    """GraphViz rendering: one node per state, doubled circle for accepting."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  __start [shape=point, label=""];']
    for q in a.states:
        shape = "doublecircle" if q in a.accepting else "circle"
        lines.append(f'  q{q} [shape={shape}, label="{q}"];')
    lines.append(f"  __start -> q{a.initial};")
    for q, x, r in sorted(a.transitions, key=lambda t: (t[0], t[2], t[1] or "")):
        label = "ε" if x is None else x
        lines.append(f'  q{q} -> q{r} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
