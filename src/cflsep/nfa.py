"""Nondeterministic finite automata with epsilon transitions.

States are dense integers local to each automaton, and values are immutable,
so automata can be shared freely. An operation whose result would equal its
argument returns the argument itself: ``trim`` of a trim automaton,
``eliminate_epsilon`` of an epsilon-free one. A value records two facts about
itself in its ``__dict__``: that ``trim`` returned it, and whether it has
epsilon edges. This is not a caching layer: both are booleans about an
immutable value, they take no part in ``==`` and ``hash``, and no index is
kept (every walk builds its own ``_successors``). Labels are terminal names
(arbitrary strings) or ``None`` for epsilon. Determinization only happens
inside complement/difference, which returns the trimmed minimal DFA of a
deterministic product; everything else stays nondeterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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


def _successors(a: Nfa) -> list[dict[str, set[int]]]:
    """Successor index ``q -> sym -> targets`` over the non-epsilon edges."""
    succ: list[dict[str, set[int]]] = [{} for _ in a.states]
    for q, x, r in a.transitions:
        if x is not None:
            succ[q].setdefault(x, set()).add(r)
    return succ


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
    succ = _successors(a)
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
            for x, targets in succ[mid].items():
                transitions.update((q, x, r) for r in targets)
        if not closure.isdisjoint(a.accepting):
            accepting.add(q)
    return Nfa(a.num_states, a.alphabet, frozenset(transitions), a.initial, frozenset(accepting))


def trim(a: Nfa) -> Nfa:
    """Keep only states on some path initial -> accepting; renumber densely.

    Returns ``a`` itself when every state is useful, and marks what it returns
    as trimmed, so trimming a trimmed value does no work.
    """
    if a.__dict__.get("_trimmed"):
        return a
    forward: dict[int, set[int]] = {q: set() for q in a.states}
    backward: dict[int, set[int]] = {q: set() for q in a.states}
    for q, _, r in a.transitions:
        forward[q].add(r)
        backward[r].add(q)

    def reach(seeds: Iterable[int], edges: dict[int, set[int]]) -> set[int]:
        seen = set(seeds)
        frontier = deque(seen)
        while frontier:
            q = frontier.popleft()
            for r in edges[q]:
                if r not in seen:
                    seen.add(r)
                    frontier.append(r)
        return seen

    useful = reach({a.initial}, forward) & reach(a.accepting, backward)
    useful.add(a.initial)
    if len(useful) < a.num_states:  # else the renumbering is the identity
        renum = {q: i for i, q in enumerate(sorted(useful))}
        transitions = frozenset(
            (renum[q], x, renum[r])
            for q, x, r in a.transitions
            if q in useful and r in useful
        )
        accepting = frozenset(renum[q] for q in a.accepting if q in useful)
        a = Nfa(len(useful), a.alphabet, transitions, renum[a.initial], accepting)
    a.__dict__["_trimmed"] = True
    return a


def minimize(a: Nfa) -> Nfa:
    """The trimmed minimal DFA of ``L(a)`` if ``a`` is an epsilon-free DFA,
    else ``trim(a)``.

    A backward reach from the accepting states finds the dead states; a
    missing edge counts as an edge to them. Moore's partition refinement
    merges equivalent states, and the classes are numbered breadth-first from
    the initial one, symbols in alphabet order, so the value depends only on
    the language and the alphabet. The empty language is one edgeless state.
    """
    col = {x: i for i, x in enumerate(a.alphabet)}
    delta = [[-1] * len(col) for _ in a.states]  # -1: no edge
    pred: list[list[int]] = [[] for _ in a.states]
    for q, x, r in a.transitions:
        if x is None or delta[q][col[x]] >= 0:  # not a DFA: only trim
            return trim(a)
        delta[q][col[x]] = r
        pred[r].append(q)
    # cls[q] is q's class; the dead states, and the missing target at index
    # -1 one past the states, are class -1
    cls = [-1] * (a.num_states + 1)
    stack = list(a.accepting)
    for q in stack:
        cls[q] = 1
    while stack:
        for p in pred[stack.pop()]:
            if cls[p] < 0:
                cls[p] = 0
                stack.append(p)
    live = [q for q in a.states if cls[q] >= 0]
    count = 1 + (0 < len(a.accepting) < len(live))
    while live:  # split by the classes of the successors until stable
        keys: dict[tuple[int, ...], int] = {}
        refined = cls[:]
        get = cls.__getitem__
        for q in live:
            refined[q] = keys.setdefault((cls[q], *map(get, delta[q])), len(keys))
        cls = refined
        if len(keys) == count:
            break
        count = len(keys)
    order = [a.initial] if cls[a.initial] >= 0 else []  # one state per class
    number = {cls[q]: 0 for q in order}
    transitions = []
    for src, q in enumerate(order):  # order grows breadth-first as it is read
        for x, r in zip(a.alphabet, delta[q]):
            if cls[r] >= 0:
                if cls[r] not in number:
                    number[cls[r]] = len(order)
                    order.append(r)
                transitions.append((src, x, number[cls[r]]))
    accepting = frozenset(i for i, q in enumerate(order) if q in a.accepting)
    m = Nfa(max(len(order), 1), a.alphabet, frozenset(transitions), 0, accepting)
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
    succ = _successors(a)

    start = frozenset({a.initial})
    numbering: dict[frozenset[int], int] = {start: 0}
    queue: deque[frozenset[int]] = deque([start])
    transitions: set[tuple[int, str | None, int]] = set()
    while queue:
        subset = queue.popleft()
        src = numbering[subset]
        for sym in alpha:
            nxt = frozenset(r for q in subset for r in succ[q].get(sym, ()))
            if nxt not in numbering:
                numbering[nxt] = len(numbering)
                queue.append(nxt)
            transitions.add((src, sym, numbering[nxt]))
    accepting = frozenset(
        idx for subset, idx in numbering.items() if a.accepting.isdisjoint(subset)
    )
    comp = Nfa(len(numbering), alpha, frozenset(transitions), 0, accepting)
    comp.__dict__["_has_epsilon"] = False  # epsilon-free by construction: no scan
    return comp


def _product(a: Nfa, b: Nfa) -> Nfa:
    """Untrimmed ``L(a) ∩ L(b)``: the pairs reached, in discovery order."""
    a = eliminate_epsilon(a)
    b = eliminate_epsilon(b)
    alpha = _merge_alphabets(a.alphabet, b.alphabet)
    succ_a, succ_b = _successors(a), _successors(b)

    start = (a.initial, b.initial)
    numbering: dict[tuple[int, int], int] = {start: 0}
    queue: deque[tuple[int, int]] = deque([start])
    transitions: set[tuple[int, str | None, int]] = set()
    while queue:
        qa, qb = queue.popleft()
        src = numbering[(qa, qb)]
        for sym in alpha:
            targets_a = succ_a[qa].get(sym)
            targets_b = succ_b[qb].get(sym)
            if not (targets_a and targets_b):
                continue
            # ints that collide in a set iterate in insertion order, which
            # follows the PYTHONHASHSEED-dependent order of the transitions
            if len(targets_a) > 1:
                targets_a = sorted(targets_a)
            if len(targets_b) > 1:
                targets_b = sorted(targets_b)
            for ra in targets_a:
                for rb in targets_b:
                    pair = (ra, rb)
                    if pair not in numbering:
                        numbering[pair] = len(numbering)
                        queue.append(pair)
                    transitions.add((src, sym, numbering[pair]))
    accepting = frozenset(
        idx
        for (qa, qb), idx in numbering.items()
        if qa in a.accepting and qb in b.accepting
    )
    return Nfa(len(numbering), alpha, frozenset(transitions), 0, accepting)


def intersect(a: Nfa, b: Nfa) -> Nfa:
    """Product construction; recognizes ``L(a) ∩ L(b)``, trimmed."""
    product = trim(_product(a, b))
    product.__dict__["_has_epsilon"] = False  # epsilon-free by construction: no scan
    return product


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
    alphabet, and the product is minimized: a DFA when ``a`` is one."""
    alpha = _merge_alphabets(a.alphabet, b.alphabet)
    return minimize(_product(a, complement(b, alpha)))


def is_empty(a: Nfa) -> bool:
    reachable = {a.initial}
    frontier = deque(reachable)
    out: dict[int, list[int]] = {}
    for q, _, r in a.transitions:
        out.setdefault(q, []).append(r)
    while frontier:
        q = frontier.popleft()
        if q in a.accepting:
            return False
        for r in out.get(q, ()):
            if r not in reachable:
                reachable.add(r)
                frontier.append(r)
    return not (reachable & a.accepting)


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
    ``w a``. The product is never materialized.
    """
    comps = [trim(eliminate_epsilon(a)) for a in automata]
    succs = [_successors(c) for c in comps]

    def accepting(state: tuple[int, ...]) -> bool:
        return all(q in c.accepting for q, c in zip(state, comps))

    start = tuple(c.initial for c in comps)
    parent: dict[tuple[int, ...], tuple[tuple[int, ...], str] | None] = {start: None}

    def word_to(state: tuple[int, ...]) -> tuple[str, ...]:
        word: list[str] = []
        while (link := parent[state]) is not None:
            state, sym = link
            word.append(sym)
        return tuple(reversed(word))

    if accepting(start):
        return ()
    queue = deque([[start]])
    while queue:
        group = queue.popleft()
        for sym in alphabet:
            reached: list[tuple[int, ...]] = []
            for state in group:
                combos: list[tuple[int, ...]] = [()]
                for q, succ in zip(state, succs):
                    combos = [c + (r,) for c in combos for r in succ[q].get(sym, ())]
                for combo in combos:
                    if combo not in parent:
                        parent[combo] = (state, sym)
                        if accepting(combo):
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
