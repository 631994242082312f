"""Counterexample generalization.

Given a witness word outside a grammar's language, grow it into a regular
language that still avoids the grammar: either by starring well-nested index
ranges of the word (star generalization) or by adding forward-epsilon and
label-replaying backward edges to the word's chain automaton (epsilon
generalization). Both run one depth-first include/exclude walk over a fixed
candidate order, include branch first, whose leaves are the valid
generalizations. The greedy variants take its first leaf; the maximum
variants union its subset-maximal leaves in walk order, within a node budget.

The walk keeps the chosen candidates and tries each candidate on one
incremental PrestarSession, as the batch of edges it adds to the chosen ones:
an epsilon candidate is its own one-edge batch on the word's chain automaton,
and a star range is the batch of edges that starring it adds to the word's
position automaton, whose states do not depend on the ranges; a range that
crosses a chosen one has no batch and is not tried. A star batch is read off
a table of the gaps of the word that chosen ranges cover, with one level per
committed batch, so no position automaton is built per candidate. An include
pushes its batch on the session and backtracking pops it, so the walk's own
stack holds only candidate indices. The base saturation decides whether the
witness is in the language at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .grammar import Cfg, GrammarError
from .nfa import Nfa, _nfa, union, word_automaton
from .prestar import PrestarSession, _with_batches
from .prestar import intersects  # noqa: F401  unused; bench/tracer.py patches refinement.intersects

DEFAULT_BUDGET = 10**6


class BudgetExceededError(RuntimeError):
    """The exhaustive generalization exceeded its budget of visited nodes."""


def _crosses(r1: tuple[int, int], r2: tuple[int, int]) -> bool:
    (i, j), (i2, j2) = r1, r2
    return i < i2 < j < j2 or i2 < i < j2 < j


@dataclass(frozen=True)
class StarGeneralization:
    """A word plus the starred index ranges; ranges are nested or disjoint."""

    word: tuple[str, ...]
    ranges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        n = len(self.word)
        for i, j in self.ranges:
            if not (0 <= i < j <= n):
                raise GrammarError(f"range {(i, j)} out of bounds for length {n}")
        # one sweep by (start, -end): the ranges open at a start are nested,
        # innermost last, and a range crosses one exactly if it ends after that
        open_ranges: list[tuple[int, int]] = []
        for i, j in sorted(self.ranges, key=lambda r: (r[0], -r[1])):
            while open_ranges and open_ranges[-1][1] <= i:
                open_ranges.pop()
            if open_ranges and open_ranges[-1][1] < j:
                raise GrammarError(
                    f"ranges {open_ranges[-1]} and {(i, j)} cross; "
                    "star ranges must be nested or disjoint"
                )
            open_ranges.append((i, j))


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
    return _position_automaton(sg.word, sg.ranges)


def _position_automaton(word: tuple[str, ...], ranges: Iterable[tuple[int, int]]) -> Nfa:
    """``gen_language`` of ``word`` and ``ranges``, which must be in bounds and
    nested or disjoint, as ``StarGeneralization`` checks."""
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

    for lo, hi in sorted(ranges, key=lambda r: r[1] - r[0]):
        first, last = concat(lo, hi, set())
        edges.update((p, word[q - 1], q) for p in last for q in first)
        pending[lo] = (hi, True, first, last)
    _, last = concat(0, n, {0})  # state 0 precedes the first positions
    edges.update((p, None, n + 1) for p in last)
    alphabet = tuple(dict.fromkeys(word))
    return _nfa(n + 2, alphabet, frozenset(edges), 0, frozenset({n + 1}))


def _session(g: Cfg, base: Nfa) -> PrestarSession:
    session = PrestarSession(g, base)
    if session.intersects():  # the base saturation decides membership
        raise GrammarError("witness is in the language; it cannot be generalized")
    return session


def _star_candidates(n: int) -> list[tuple[int, int]]:
    # increasing span, then increasing start position
    return [(i, i + span) for span in range(1, n + 1) for i in range(n - span + 1)]


def _eps_candidates(word: tuple[str, ...]) -> list[tuple[tuple[int, str | None, int]]]:
    # one-edge batches: forward epsilon edges, then label-replaying backward
    # edges, each in the star ranges' order
    spans = _star_candidates(len(word))
    return [((i, None, j),) for i, j in spans] + [((j - 1, word[j - 1], i),) for i, j in spans]


def _own_batch(chosen: Sequence, c: tuple) -> tuple:
    return c  # an epsilon candidate is its own batch of edges


def _star_batches(
    w: tuple[str, ...], session: PrestarSession
) -> Callable[[Sequence, tuple[int, int]], list | None]:
    """The batch of a star range on ``session``, over the position automaton
    of ``w`` and holding the ranges chosen so far: the edges that starring it
    adds to their ``gen_language``, or None for a range crossing one of them.

    The edges follow from a coverability table. The gap (x, y), x < y, is
    coverable when the letters x+1..y are a concatenation of chosen ranges,
    and (x, x) always is. ``gen_language`` has the edge p -> q+1 exactly
    when (p, q) is coverable (an ε edge into n+1 for q = n), and the loops of
    each chosen range (a, b): from each last position p, (p, b) coverable,
    to each first position q, (a, q-1) coverable, for a < p, q <= b. So
    starring (i, j) adds the edges of the gaps it newly covers, (x, y) with
    (x, i) and (j, y) coverable; its own loops; and the loops that those
    gaps give the chosen ranges around it. The table keeps one level per
    batch committed on the session: each call first drops the levels of the
    ranges popped from ``chosen`` and pushes the one committed since.
    """
    n = len(w)
    ends: list[set[int]] = [set() for _ in range(n + 1)]  # ends[x]: each y > x with (x, y) coverable
    starts: list[set[int]] = [set() for _ in range(n + 1)]  # starts[y]: each x < y with (x, y) coverable
    held = set(session.base.transitions)  # the session's edges
    ranges: list[tuple[int, int]] = []  # the range of each level, oldest first
    levels: list[tuple[list, set]] = []  # the gaps each level covered and the edges it added
    pending = None  # the range of the last call, with its gaps and edges

    def starred(r: tuple[int, int], chosen: Iterable[tuple[int, int]]) -> tuple[list, set]:
        # the gaps and edges that starring r adds to ``chosen``, which the table holds
        i, j = r
        outer = [(a, b) for a, b in chosen if a <= i and j <= b]
        gaps = [] if j in ends[i] else [(x, y) for x in (i, *starts[i]) for y in (j, *ends[j]) if y not in ends[x]]
        edges = {(x, w[y] if y < n else None, y + 1) for x, y in gaps}
        for a, b in (r, *outer):
            firsts = [y + 1 for y in (a, *ends[a], *(y for x, y in gaps if x == a)) if y < b]
            lasts = [x for x in (b, *starts[b], *(x for x, y in gaps if y == b)) if x > a]
            edges.update((p, w[q - 1], q) for p in lasts for q in firsts)
        return gaps, edges - held

    def sync(chosen: Sequence[tuple[int, int]]) -> None:
        # between two calls the walk pops chosen ranges, or commits the range
        # of the last call, whose batch was made on the table as it still is
        while len(ranges) > len(chosen):
            gaps, edges = levels.pop()
            ranges.pop()
            for x, y in gaps:
                ends[x].remove(y)
                starts[y].remove(x)
            held.difference_update(edges)
        if len(chosen) > len(ranges):
            r, gaps, edges = pending
            for x, y in gaps:
                ends[x].add(y)
                starts[y].add(x)
            held.update(edges)
            ranges.append(r)
            levels.append((gaps, edges))
        if ranges != list(chosen):
            raise ValueError(f"chosen ranges {list(chosen)} are not the batched ones {ranges}")

    def batch(chosen: Sequence[tuple[int, int]], r: tuple[int, int]) -> list | None:
        nonlocal pending
        if any(_crosses(r, a) for a in chosen):
            return None
        sync(chosen)
        pending = (r, *starred(r, chosen))
        # in a fixed order, not the set's hash order (an edge's ends fix its label)
        return sorted(pending[2], key=lambda e: (e[0], e[2]))

    return batch


def _walk(
    session: PrestarSession, candidates: Sequence, batch: Callable, budget: float = math.inf
) -> Iterator[frozenset]:
    """Depth-first include/exclude walk over ``candidates``, include first,
    yielding the frozenset of the chosen candidates at each leaf: the first
    leaf is the greedy choice, left committed on ``session``. A candidate
    ``c`` is tried on ``session`` as the edge batch ``batch(chosen, c)``; a
    None batch is not tried and gets no node. Nodes are counted against
    ``budget``. Candidates are distinct and the choice only grows below an
    include, so no two nodes share choice and position, and every strict
    superset of a leaf comes before it: at the first candidate where the two
    differ, the superset takes the include branch."""
    nodes = 0
    chosen: list = []
    stack: list[int | None] = [0]  # the candidate index to go on from, or None: undo the newest choice
    while stack:
        idx = stack.pop()
        if idx is None:
            session.pop()
            chosen.pop()
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"budget of {budget} calls exhausted")
        while idx < len(candidates) and (edges := batch(chosen, candidates[idx])) is None:
            idx += 1
        if idx == len(candidates):
            yield frozenset(chosen)
            continue
        stack.append(idx + 1)
        if session.try_add(edges):
            chosen.append(candidates[idx])
            stack += [None, idx + 1]


def _union_of_maxima(leaves: Iterator[frozenset], build: Callable[[frozenset], Nfa]) -> Nfa:
    # the union of all valid generalizations equals the union over the
    # subset-maximal ones (adding a range or edge only grows the language);
    # the walk yields a leaf's strict supersets before it, so a leaf is
    # maximal unless it lies inside one kept so far, and the union goes in
    # walk order, which never depends on hashing
    kept: list[frozenset] = []
    for leaf in leaves:
        if not any(leaf <= other for other in kept):
            kept.append(leaf)
    return union(*map(build, kept))


def _greedy_star(w: tuple[str, ...], g: Cfg) -> tuple[frozenset[tuple[int, int]], PrestarSession]:
    # the greedy walk's ranges, and its session, which holds their gen_language:
    # the engine reads the automaton off it instead of building it again
    session = _session(g, _position_automaton(w, ()))
    return next(_walk(session, _star_candidates(len(w)), _star_batches(w, session))), session


def star_generalize(w: Sequence[str], g: Cfg) -> StarGeneralization:
    """Greedy maximal star generalization of ``w`` against ``L(g)``: each
    range is tried once, shortest span first, and kept when the language
    still avoids L(g); ranges crossing a kept one are not tried."""
    w = tuple(w)
    return StarGeneralization(w, _greedy_star(w, g)[0])


def eps_generalize(w: Sequence[str], g: Cfg) -> Nfa:
    """Greedy maximal epsilon generalization of ``w`` against ``L(g)``: forward
    epsilon edges (shortest span first), then backward edges, each kept when
    the saturation session shows L(g) still excluded."""
    w = tuple(w)
    session = _session(g, word_automaton(w))
    next(_walk(session, _eps_candidates(w), _own_batch))  # the session now holds the first leaf
    return session.automaton()


def max_star_generalize(g: Cfg, w: Sequence[str], budget: int = DEFAULT_BUDGET) -> Nfa:
    """Union of every valid star generalization of ``w`` against ``L(g)``;
    raises BudgetExceededError once the walk visits more than ``budget`` nodes."""
    w = tuple(w)
    session = _session(g, _position_automaton(w, ()))
    leaves = _walk(session, _star_candidates(len(w)), _star_batches(w, session), budget)
    return _union_of_maxima(leaves, lambda ranges: _position_automaton(w, ranges))


def max_eps_generalize(g: Cfg, w: Sequence[str], budget: int = DEFAULT_BUDGET) -> Nfa:
    """Union of every valid epsilon generalization of ``w`` against ``L(g)``."""
    w = tuple(w)
    base = word_automaton(w)
    leaves = _walk(_session(g, base), _eps_candidates(w), _own_batch, budget)
    # a leaf is a set of one-edge batches, each checked by the session
    return _union_of_maxima(leaves, lambda batches: _with_batches(base, batches))
