"""Counterexample generalization.

Given a witness word outside a grammar's language, grow it into a regular
language that still avoids the grammar: either by starring well-nested index
ranges of the word (star generalization) or by adding forward-epsilon and
label-replaying backward edges to the word's chain automaton (epsilon
generalization). Both run one depth-first include/exclude walk over a fixed
candidate order, include branch first, whose leaves are the valid
generalizations. The greedy variants take its first leaf; the maximum
variants union its subset-maximal leaves, within a node budget.

The walk keeps the chosen candidates and tries each candidate on one
incremental PrestarSession, as the batch of edges it adds to the chosen ones:
an epsilon candidate is its own one-edge batch on the word's chain automaton,
and a star range is the batch of edges that starring it adds to the word's
position automaton, whose states do not depend on the ranges; a range that
crosses a chosen one has no batch and is not tried. The base saturation
decides whether the witness is in the language at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .grammar import Cfg, GrammarError
from .nfa import Nfa, _nfa, union, word_automaton
from .prestar import PrestarSession
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
    return _nfa(n + 2, alphabet, frozenset(edges), 0, frozenset({n + 1}), _has_epsilon=True)


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


def _star_batches(w: tuple[str, ...], base: Nfa) -> Callable[[Sequence, tuple[int, int]], list | None]:
    """The batch of a star range on a session over ``base``, the position
    automaton of ``w``: the edges that starring it adds to ``gen_language`` of
    the ranges chosen so far, or None for a range crossing one of them."""
    built = [base.transitions]  # the position automaton's edges at each depth of the walk

    def batch(chosen: Sequence[tuple[int, int]], r: tuple[int, int]) -> list | None:
        if any(_crosses(r, a) for a in chosen):
            return None
        del built[len(chosen) + 1:]
        built.append(_position_automaton(w, (*chosen, r)).transitions)
        # in a fixed order, not the set's hash order (an edge's ends fix its label)
        return sorted(built[-1] - built[-2], key=lambda e: (e[0], e[2]))

    return batch


def _walk(
    session: PrestarSession, candidates: Sequence, batch: Callable, budget: float = math.inf
) -> Iterator[frozenset]:
    """Depth-first include/exclude walk over ``candidates``, include first,
    yielding the frozenset of the chosen candidates at each leaf: the first
    leaf is the greedy choice. A candidate ``c`` is tried on ``session`` as
    the edge batch ``batch(chosen, c)``; a None batch is not tried and gets
    no node. Nodes are counted against ``budget``. Candidates are distinct
    and the choice only grows below an include, so no two nodes share choice
    and position."""
    nodes = 0
    chosen: list = []
    stack: list[tuple[int | None, object]] = [(0, None)]  # (None, token): roll back
    while stack:
        idx, token = stack.pop()
        if idx is None:
            session.rollback(token)
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
        stack.append((idx + 1, None))
        token = session.snapshot()
        if session.try_add(edges):
            chosen.append(candidates[idx])
            stack += [(None, token), (idx + 1, None)]


def _union_of_maxima(
    leaves: Iterator[frozenset], candidates: Sequence, build: Callable[[frozenset], Nfa]
) -> Nfa:
    # the union of all valid generalizations equals the union over the
    # subset-maximal ones (adding a range or edge only grows the language);
    # equal sizes go in candidate order, so the union never depends on hashing
    index = {c: i for i, c in enumerate(candidates)}
    kept: list[frozenset] = []
    for leaf in sorted(leaves, key=lambda s: (-len(s), sorted(map(index.get, s)))):
        if not any(leaf <= other for other in kept):
            kept.append(leaf)
    return union(*map(build, kept))


def star_generalize(w: Sequence[str], g: Cfg) -> StarGeneralization:
    """Greedy maximal star generalization of ``w`` against ``L(g)``: each
    range is tried once, shortest span first, and kept when the language
    still avoids L(g); ranges crossing a kept one are not tried."""
    w = tuple(w)
    base = _position_automaton(w, ())
    leaf = next(_walk(_session(g, base), _star_candidates(len(w)), _star_batches(w, base)))
    return StarGeneralization(w, leaf)


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
    base = _position_automaton(w, ())
    candidates = _star_candidates(len(w))
    leaves = _walk(_session(g, base), candidates, _star_batches(w, base), budget)
    return _union_of_maxima(leaves, candidates, lambda ranges: _position_automaton(w, ranges))


def max_eps_generalize(g: Cfg, w: Sequence[str], budget: int = DEFAULT_BUDGET) -> Nfa:
    """Union of every valid epsilon generalization of ``w`` against ``L(g)``."""
    w = tuple(w)
    base = word_automaton(w)
    candidates = _eps_candidates(w)
    leaves = _walk(_session(g, base), candidates, _own_batch, budget)

    def leaf_automaton(batches: frozenset) -> Nfa:
        # every edge passed the session's checks against the word's chain
        transitions = base.transitions.union(*batches)
        return _nfa(base.num_states, base.alphabet, transitions, base.initial, base.accepting)

    return _union_of_maxima(leaves, candidates, leaf_automaton)
