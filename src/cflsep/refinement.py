"""Counterexample generalization.

Given a witness word outside a grammar's language, grow it into a regular
language that still avoids the grammar: either by starring well-nested index
ranges of the word (star generalization) or by adding forward-epsilon and
label-replaying backward edges to the word's chain automaton (epsilon
generalization). Both run one depth-first include/exclude walk over a fixed
candidate order, include branch first, whose leaves are the valid
generalizations. The greedy variants take its first leaf; the maximum
variants union its subset-maximal leaves, within a node budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

from .grammar import Cfg, GrammarError
from .nfa import Nfa, union
from .prestar import PrestarSession, in_language, intersects

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
        ordered = sorted(self.ranges)
        for a in range(len(ordered)):
            for b in range(a + 1, len(ordered)):
                if _crosses(ordered[a], ordered[b]):
                    raise GrammarError(
                        f"ranges {ordered[a]} and {ordered[b]} cross; "
                        "star ranges must be nested or disjoint"
                    )


def gen_language(sg: StarGeneralization) -> Nfa:
    """Automaton for the word with every range made unboundedly repeatable.

    Built innermost-outward: a nested range stars the already-starred
    segment, so ("aab", {(0,1),(1,3),(0,3)}) yields the same language as
    the expression (a*(ab)*)*.
    """
    word = sg.word
    transitions: list[tuple[int, str | None, int]] = []
    counter = [0]

    def fresh() -> int:
        counter[0] += 1
        return counter[0] - 1

    def starred(lo: int, hi: int, inner: list[tuple[int, int]]) -> tuple[int, int]:
        s, e = segment(lo, hi, inner)
        ns, ne = fresh(), fresh()
        transitions.extend([(ns, None, s), (e, None, ne), (ns, None, ne), (e, None, s)])
        return ns, ne

    def segment(lo: int, hi: int, ranges: list[tuple[int, int]]) -> tuple[int, int]:
        maximal = [
            r
            for r in ranges
            if not any(o != r and o[0] <= r[0] and r[1] <= o[1] for o in ranges)
        ]
        start_at = {r[0]: r for r in maximal}
        s = fresh()
        cur = s
        pos = lo
        while pos < hi:
            if pos in start_at:
                i, j = start_at[pos]
                inner = [r for r in ranges if r != (i, j) and i <= r[0] and r[1] <= j]
                fs, fe = starred(i, j, inner)
                transitions.append((cur, None, fs))
                cur = fe
                pos = j
            else:
                nxt = fresh()
                transitions.append((cur, word[pos], nxt))
                cur = nxt
                pos += 1
        return s, cur

    ranges = sorted(sg.ranges)
    whole = (0, len(word))
    if whole in sg.ranges:
        start, end = starred(0, len(word), [r for r in ranges if r != whole])
    else:
        start, end = segment(0, len(word), ranges)
    alphabet = tuple(dict.fromkeys(word))
    return Nfa(counter[0], alphabet, frozenset(transitions), start, frozenset({end}))


def _disjoint(g: Cfg, auto: Nfa) -> bool:
    return not intersects(g, auto)


def _outside(g: Cfg, w: Sequence[str]) -> tuple[str, ...]:
    w = tuple(w)
    if in_language(g, w):
        raise GrammarError("witness is in the language; it cannot be generalized")
    return w


def _eps_session(g: Cfg, w: Sequence[str]) -> PrestarSession:
    session = PrestarSession(g, w)
    if session.intersects():  # the base saturation decides membership
        raise GrammarError("witness is in the language; it cannot be generalized")
    return session


def _star_candidates(n: int) -> list[tuple[int, int]]:
    # increasing span, then increasing start position
    return [(i, i + span) for span in range(1, n + 1) for i in range(n - span + 1)]


def _eps_candidates(word: tuple[str, ...]) -> list[tuple[int, str | None, int]]:
    # forward epsilon edges, then label-replaying backward edges, each in
    # the star ranges' order
    spans = _star_candidates(len(word))
    return [(i, None, j) for i, j in spans] + [(j - 1, word[j - 1], i) for i, j in spans]


class _StarSession:
    """Accepted star ranges of one word, in PrestarSession's protocol."""

    def __init__(self, g: Cfg, w: tuple[str, ...]) -> None:
        self.word, self.grammar = w, g
        self.edges: list[tuple[int, int]] = []

    def try_add(self, r: tuple[int, int]) -> bool:
        trial = StarGeneralization(self.word, frozenset(self.edges) | {r})
        ok = _disjoint(self.grammar, gen_language(trial))
        if ok:
            self.edges.append(r)
        return ok

    def snapshot(self) -> int:
        return len(self.edges)

    def rollback(self, token: int) -> None:
        del self.edges[token:]


def _crosses_any(accepted: Sequence[tuple[int, int]], r: tuple[int, int]) -> bool:
    return any(_crosses(r, a) for a in accepted)


def _walk(
    session, candidates: Sequence, budget: float = math.inf, skip=None
) -> Iterator[frozenset]:
    """Depth-first include/exclude walk over ``candidates``, include first,
    yielding ``frozenset(session.edges)`` at each leaf: the first leaf is the
    greedy choice. Nodes are counted against ``budget``; a candidate with
    ``skip(edges, c)`` gets no node. Candidates are distinct and edges only
    grow below an include, so no two nodes share edges and position."""
    nodes = 0
    stack: list[tuple[int | None, object]] = [(0, None)]  # (None, token): roll back
    while stack:
        idx, token = stack.pop()
        if idx is None:
            session.rollback(token)
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"budget of {budget} calls exhausted")
        while skip and idx < len(candidates) and skip(session.edges, candidates[idx]):
            idx += 1
        if idx == len(candidates):
            yield frozenset(session.edges)
            continue
        stack.append((idx + 1, None))
        token = session.snapshot()
        if session.try_add(candidates[idx]):
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
    w = _outside(g, w)
    leaf = next(_walk(_StarSession(g, w), _star_candidates(len(w)), skip=_crosses_any))
    return StarGeneralization(w, leaf)


def eps_generalize(w: Sequence[str], g: Cfg) -> Nfa:
    """Greedy maximal epsilon generalization of ``w`` against ``L(g)``: forward
    epsilon edges (shortest span first), then backward edges, each kept when
    the saturation session shows L(g) still excluded."""
    session = _eps_session(g, w)
    next(_walk(session, _eps_candidates(session.word)))  # the session now holds the first leaf
    return session.automaton()


def max_star_generalize(g: Cfg, w: Sequence[str], budget: int = DEFAULT_BUDGET) -> Nfa:
    """Union of every valid star generalization of ``w`` against ``L(g)``;
    raises BudgetExceededError once the walk visits more than ``budget`` nodes."""
    w = _outside(g, w)
    candidates = _star_candidates(len(w))
    leaves = _walk(_StarSession(g, w), candidates, budget, _crosses_any)
    return _union_of_maxima(
        leaves, candidates, lambda ranges: gen_language(StarGeneralization(w, ranges))
    )


def max_eps_generalize(g: Cfg, w: Sequence[str], budget: int = DEFAULT_BUDGET) -> Nfa:
    """Union of every valid epsilon generalization of ``w`` against ``L(g)``."""
    session = _eps_session(g, w)
    base = session.base
    candidates = _eps_candidates(session.word)
    leaves = _walk(session, candidates, budget)
    return _union_of_maxima(
        leaves, candidates, lambda e: replace(base, transitions=base.transitions | e)
    )
