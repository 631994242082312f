"""Counterexample generalization.

Given a witness word outside a grammar's language, grow it into a regular
language that still avoids the grammar: either by starring well-nested index
ranges of the word (star generalization) or by adding forward-epsilon and
label-replaying backward edges to the word's chain automaton (epsilon
generalization). Both run one depth-first include/exclude walk over a fixed
candidate order, include branch first, whose leaves are the valid
generalizations. All four strategies go through ``_generalization``, and
every one reads the automaton that the session holds at a leaf: the greedy
variants at its first leaf; the maximum variants at each subset-maximal
leaf, unioned in walk order, within a node budget.

The walk drives two steps over one incremental PrestarSession: ``include``
tries a candidate as one batch of edges and reports it kept, rejected or not
tried, and ``pop`` undoes the newest kept one, so the walk's own stack holds
only candidate indices. An epsilon candidate is its own one-edge batch on
the word's chain automaton, so its steps are the session's own. A star
range's batch is the edges that starring it adds to the word's position
automaton, whose states do not depend on the ranges; a range that crosses
an included one is not tried. The batch is read off a table of the gaps of
the word that included ranges cover, which moves with the session, so a
star walk builds one position automaton, its base. The base saturation
decides whether the witness is in the language at all.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Iterator, Sequence

from .grammar import Cfg, GrammarError
from .nfa import Nfa, _nfa, union, word_automaton
from .prestar import PrestarSession
from .prestar import intersects  # noqa: F401  unused; bench/tracer.py patches refinement.intersects
from .value import Value

DEFAULT_BUDGET = 10**6


class BudgetExceededError(RuntimeError):
    """A generalization walk passed its budget of visited nodes or its deadline."""


def _crosses(r1: tuple[int, int], r2: tuple[int, int]) -> bool:
    (i, j), (i2, j2) = r1, r2
    return i < i2 < j < j2 or i2 < i < j2 < j


class StarGeneralization(Value):
    """A word plus the starred index ranges; ranges are nested or disjoint."""

    word: tuple[str, ...]
    ranges: frozenset[tuple[int, int]]

    def __init__(self, word: tuple[str, ...], ranges: frozenset[tuple[int, int]]) -> None:
        n = len(word)
        for i, j in ranges:
            if not (0 <= i < j <= n):
                raise GrammarError(f"range {(i, j)} out of bounds for length {n}")
        # one sweep by (start, -end): the ranges open at a start are nested,
        # innermost last, and a range crosses one exactly if it ends after that
        open_ranges: list[tuple[int, int]] = []
        for i, j in sorted(ranges, key=lambda r: (r[0], -r[1])):
            while open_ranges and open_ranges[-1][1] <= i:
                open_ranges.pop()
            if open_ranges and open_ranges[-1][1] < j:
                raise GrammarError(
                    f"ranges {open_ranges[-1]} and {(i, j)} cross; "
                    "star ranges must be nested or disjoint"
                )
            open_ranges.append((i, j))
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "ranges", ranges)


def gen_language(sg: StarGeneralization) -> Nfa:
    """Position automaton of the word with every range made unboundedly
    repeatable (Glushkov 1961; McNaughton & Yamada 1960).

    A nested range stars the already-starred segment, so ("aab",
    {(0,1),(1,3),(0,3)}) yields the language of (a*(ab)*)*. State 0 is
    initial, state p is "after the p-th letter" (every labelled edge into p
    reads ``word[p-1]``), and ε edges lead from each last position, and from
    0 when the expression is nullable, to the one accepting state n+1. So the
    states never change, and a range that crosses none of ``R`` only adds
    edges: ``gen_language(R).transitions ⊆ gen_language(R ∪ {r}).transitions``.
    Built without recursion, ranges by increasing span.

    A word of n letters gives n+2 states and at most (n+1)² edges: a
    labelled edge p -> q for each 0 <= p <= n and 1 <= q <= n, and an ε edge
    from each 0 <= p <= n. Nests reach the quadratic part: the nest
    {(0, k) : 1 <= k <= n} on aⁿ has n(n+1)/2 + 2n + 1 edges, 4,507,501 for
    n = 3,000, which took a 677 MB peak and 6.8 s to build.
    """
    word = sg.word
    n = len(word)
    edges: set[tuple[int, str | None, int]] = set()
    # built ranges not yet inside a built range, by start: (end, nullable, first, last)
    pending: dict[int, tuple[int, bool, set[int], set[int]]] = {}

    def concat(lo: int, hi: int, last: set[int]) -> tuple[set[int], set[int]]:
        # joins the letters and pending ranges of [lo, hi) after the positions
        # ``last``, adding the follow edges; returns the segment's first
        # positions and the last positions of the whole
        nullable, first, pos = True, set(), lo
        while pos < hi:
            end, c_nullable, c_first, c_last = pending.pop(pos, None) or (pos + 1, False, {pos + 1}, {pos + 1})
            edges.update((p, word[q - 1], q) for p in last for q in c_first)
            if nullable:
                first |= c_first
            if c_nullable:
                c_last |= last
            nullable, last, pos = nullable and c_nullable, c_last, end
        return first, last

    for lo, hi in sorted(sg.ranges, key=lambda r: r[1] - r[0]):
        first, last = concat(lo, hi, set())
        edges.update((p, word[q - 1], q) for p in last for q in first)
        pending[lo] = (hi, True, first, last)
    _, last = concat(0, n, {0})  # state 0 precedes the first positions
    edges.update((p, None, n + 1) for p in last)
    alphabet = tuple(dict.fromkeys(word))
    return _nfa(n + 2, alphabet, frozenset(edges), 0, frozenset({n + 1}))


def _star_candidates(n: int) -> list[tuple[int, int]]:
    # increasing span, then increasing start position
    return [(i, i + span) for span in range(1, n + 1) for i in range(n - span + 1)]


def _eps_candidates(word: tuple[str, ...]) -> list[tuple[tuple[int, str | None, int]]]:
    # one-edge batches: forward epsilon edges, then label-replaying backward
    # edges, each in the star ranges' order
    spans = _star_candidates(len(word))
    return [((i, None, j),) for i, j in spans] + [((j - 1, word[j - 1], i),) for i, j in spans]


def _star_steps(w: tuple[str, ...], session: PrestarSession) -> tuple[Callable, Callable]:
    """``include`` and ``pop`` of star ranges on ``session``, over the
    position automaton of ``w``. ``include(r)`` tries as one batch the edges
    that starring ``r`` adds to the ``gen_language`` of the included ranges,
    and returns None, untried, for a range crossing one of them; ``pop()``
    undoes the newest included range.

    The edges follow from a coverability table. The gap (x, y), x < y, is
    coverable when the letters x+1..y are a concatenation of included
    ranges, and (x, x) always is. ``gen_language`` has the edge p -> q+1
    exactly when (p, q) is coverable (an ε edge into n+1 for q = n), and the
    loops of each included range (a, b): from each last position p, (p, b)
    coverable, to each first position q, (a, q-1) coverable, for a < p, q <=
    b. So starring (i, j) adds the edges of the gaps it newly covers, (x, y)
    with (x, i) and (j, y) coverable; its own loops; and the loops that those
    gaps give the included ranges around it. The table keeps one level per
    range the session commits, pushed with it and popped with it.
    """
    n = len(w)
    ends: list[set[int]] = [set() for _ in range(n + 1)]  # ends[x]: each y > x with (x, y) coverable
    starts: list[set[int]] = [set() for _ in range(n + 1)]  # starts[y]: each x < y with (x, y) coverable
    held = set(session.base.transitions)  # the session's edges
    levels: list[tuple[tuple[int, int], list, set]] = []  # per included range: (it, gaps covered, edges added)

    def include(r: tuple[int, int]) -> bool | None:
        if any(_crosses(r, a) for a, _, _ in levels):
            return None
        i, j = r
        outer = [(a, b) for (a, b), _, _ in levels if a <= i and j <= b]
        gaps = [] if j in ends[i] else [(x, y) for x in (i, *starts[i]) for y in (j, *ends[j]) if y not in ends[x]]
        edges = {(x, w[y] if y < n else None, y + 1) for x, y in gaps}
        for a, b in (r, *outer):
            firsts = [y + 1 for y in (a, *ends[a], *(y for x, y in gaps if x == a)) if y < b]
            lasts = [x for x in (b, *starts[b], *(x for x, y in gaps if y == b)) if x > a]
            edges.update((p, w[q - 1], q) for p in lasts for q in firsts)
        edges -= held
        # in a fixed order, not the set's hash order (an edge's ends fix its label)
        if not session.try_add(sorted(edges, key=lambda e: (e[0], e[2]))):
            return False
        for x, y in gaps:
            ends[x].add(y)
            starts[y].add(x)
        held.update(edges)
        levels.append((r, gaps, edges))
        return True

    def pop() -> None:
        session.pop()
        _, gaps, edges = levels.pop()
        for x, y in gaps:
            ends[x].remove(y)
            starts[y].remove(x)
        held.difference_update(edges)

    return include, pop


def _walk(
    include: Callable, pop: Callable, candidates: Sequence, budget: float = math.inf, deadline: float = math.inf
) -> Iterator[frozenset]:
    """Depth-first include/exclude walk over ``candidates``, include first,
    yielding the frozenset of the chosen candidates at each leaf: the first
    leaf is the greedy choice, left included. ``include(c)`` returns True
    when it keeps ``c``, False when it rejects it, and None when ``c`` is not
    tried, which gets no node; ``pop()`` undoes the newest kept candidate.
    A node past ``budget`` nodes, or past ``deadline`` on ``time.monotonic()``,
    raises ``BudgetExceededError``. Candidates are distinct and the choice
    only grows below an include, so no two nodes share choice and position,
    and every strict superset of a leaf comes before it: at the first
    candidate where the two differ, the superset takes the include branch."""
    nodes = 0
    chosen: list = []
    stack: list[int | None] = [0]  # the candidate index to go on from, or None: undo the newest choice
    while stack:
        idx = stack.pop()
        if idx is None:
            pop()
            chosen.pop()
            continue
        nodes += 1
        if nodes > budget or time.monotonic() > deadline:
            raise BudgetExceededError(f"walk stopped at node {nodes}: budget {budget} or deadline passed")
        while idx < len(candidates) and (kept := include(candidates[idx])) is None:
            idx += 1
        if idx == len(candidates):
            yield frozenset(chosen)
            continue
        stack.append(idx + 1)
        if kept:
            chosen.append(candidates[idx])
            stack += [None, idx + 1]


def _generalization(
    g: Cfg, w: Sequence[str], strategy: str, budget: int = DEFAULT_BUDGET, deadline: float = math.inf
) -> tuple[Nfa, frozenset]:
    """The generalization of ``w`` against ``L(g)`` under ``strategy``, one of
    ``engine.STRATEGIES``, and the first leaf of its walk.

    At a leaf the session holds exactly the leaf's batches, so its automaton
    is the leaf's generalization. Greedy reads it at the first leaf, with
    only ``deadline`` as a bound; max at each leaf not inside a kept one,
    unioned in walk order, which never depends on hashing. That is the union
    of every valid generalization: a candidate only adds edges, and the walk
    yields a leaf's strict supersets before it.
    """
    w = tuple(w)
    kind, family = strategy.split("-")
    if family == "star":
        session = PrestarSession(g, gen_language(StarGeneralization(w, frozenset())))
        candidates, (include, pop) = _star_candidates(len(w)), _star_steps(w, session)
    else:
        session = PrestarSession(g, word_automaton(w))
        candidates, include, pop = _eps_candidates(w), session.try_add, session.pop  # each its own batch
    if session.intersects():  # the base saturation decides membership
        raise GrammarError("witness is in the language; it cannot be generalized")
    if kind == "greedy":
        first = next(_walk(include, pop, candidates, deadline=deadline))  # left committed on the session
        return session.automaton(), first
    kept: list[frozenset] = []
    automata: list[Nfa] = []
    for leaf in _walk(include, pop, candidates, budget, deadline):
        if not any(leaf <= other for other in kept):
            kept.append(leaf)
            automata.append(session.automaton())
    return union(*automata), kept[0]


def star_generalize(w: Sequence[str], g: Cfg) -> StarGeneralization:
    """Greedy maximal star generalization of ``w`` against ``L(g)``: each
    range is tried once, shortest span first, and kept when the language
    still avoids L(g); ranges crossing a kept one are not tried."""
    return StarGeneralization(tuple(w), _generalization(g, w, "greedy-star")[1])


def eps_generalize(w: Sequence[str], g: Cfg) -> Nfa:
    """Greedy maximal epsilon generalization of ``w`` against ``L(g)``: forward
    epsilon edges (shortest span first), then backward edges, each kept when
    the saturation session shows L(g) still excluded."""
    return _generalization(g, w, "greedy-eps")[0]


def max_star_generalize(g: Cfg, w: Sequence[str], budget: int = DEFAULT_BUDGET) -> Nfa:
    """Union of every valid star generalization of ``w`` against ``L(g)``;
    raises BudgetExceededError once the walk visits more than ``budget`` nodes."""
    return _generalization(g, w, "max-star", budget)[0]


def max_eps_generalize(g: Cfg, w: Sequence[str], budget: int = DEFAULT_BUDGET) -> Nfa:
    """Union of every valid epsilon generalization of ``w`` against ``L(g)``;
    raises BudgetExceededError once the walk visits more than ``budget`` nodes."""
    return _generalization(g, w, "max-eps", budget)[0]
