"""Counterexample generalization.

Given a witness word outside a grammar's language, grow it into a regular
language that still avoids the grammar: either by starring well-nested index
ranges of the word (star generalization) or by adding forward-epsilon and
label-replaying backward edges to the word's chain automaton (epsilon
generalization). The greedy variants test each candidate once; the maximum
variants union every reachable valid generalization, at exponential cost
bounded by an explicit call budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .grammar import Cfg, GrammarError, in_language, normalize
from .nfa import Nfa, union, word_automaton
from .prestar import PrestarSession, intersects

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


def _disjoint(gn: Cfg, auto: Nfa) -> bool:
    return not intersects(gn, auto)


def _star_candidates(n: int) -> list[tuple[int, int]]:
    # increasing span, then increasing start position
    return [(i, i + span) for span in range(1, n + 1) for i in range(n - span + 1)]


def star_generalize(
    w: Sequence[str], g: Cfg, max_candidates: int | None = None
) -> StarGeneralization:
    """Greedy maximal star generalization of ``w`` against ``L(g)``.

    Candidates are tried once each; a range is kept when the generalized
    language still avoids L(g), and candidates crossing an accepted range
    are dropped. ``max_candidates`` truncates the candidate stream, which
    stays sound (anytime behavior).
    """
    w = tuple(w)
    if in_language(g, w):
        raise GrammarError("witness is in the language; it cannot be generalized")
    gn = normalize(g)
    accepted: list[tuple[int, int]] = []
    pending = _star_candidates(len(w))
    tested = 0
    while pending:
        if max_candidates is not None and tested >= max_candidates:
            break
        candidate = pending.pop(0)
        tested += 1
        trial = StarGeneralization(w, frozenset(accepted) | {candidate})
        if _disjoint(gn, gen_language(trial)):
            accepted.append(candidate)
            pending = [p for p in pending if not _crosses(p, candidate)]
    return StarGeneralization(w, frozenset(accepted))


def _eps_candidates(word: tuple[str, ...]) -> list[tuple[int, str | None, int]]:
    n = len(word)
    forward = [
        (i, None, i + span) for span in range(1, n + 1) for i in range(n - span + 1)
    ]
    backward = [
        (j - 1, word[j - 1], j - span)
        for span in range(1, n + 1)
        for j in range(span, n + 1)
    ]
    return forward + backward


def eps_generalize(
    w: Sequence[str], g: Cfg, max_candidates: int | None = None
) -> Nfa:
    """Greedy maximal epsilon generalization of ``w`` against ``L(g)``.

    Forward epsilon edges are tried first (shortest span first), then
    backward edges; each tentative edge is validated incrementally on a
    saturation session and reverted when it would let L(g) in.
    """
    w = tuple(w)
    if in_language(g, w):
        raise GrammarError("witness is in the language; it cannot be generalized")
    session = PrestarSession(g, word_automaton(w))
    for tested, edge in enumerate(_eps_candidates(w)):
        if max_candidates is not None and tested >= max_candidates:
            break
        session.try_add(edge)
    return session.automaton()


def _maximal_sets(leaves: Iterable[frozenset]) -> list[frozenset]:
    # the union of all valid generalizations equals the union over the
    # subset-maximal ones (adding a range or edge only grows the language)
    ordered = sorted(set(leaves), key=len, reverse=True)
    kept: list[frozenset] = []
    for leaf in ordered:
        if not any(leaf <= other for other in kept):
            kept.append(leaf)
    return kept


def max_star_generalize(g: Cfg, w: Sequence[str], budget: int = DEFAULT_BUDGET) -> Nfa:
    """Union of every valid star generalization of ``w`` against ``L(g)``.

    Explores the include/exclude tree over the candidate ranges (states
    deduplicated on accepted-set plus position), collects the reachable
    complete generalizations, and unions the subset-maximal ones. Raises
    BudgetExceededError when the number of visited nodes passes ``budget``.
    """
    w = tuple(w)
    if in_language(g, w):
        raise GrammarError("witness is in the language; it cannot be generalized")
    gn = normalize(g)
    candidates = _star_candidates(len(w))
    visited: set[tuple[frozenset, int]] = set()
    leaves: set[frozenset] = set()
    calls = 0

    # depth-first over the include/exclude tree, include branch first
    stack: list[tuple[frozenset, int]] = [(frozenset(), 0)]
    while stack:
        accepted, idx = stack.pop()
        calls += 1
        if calls > budget:
            raise BudgetExceededError(f"budget of {budget} calls exhausted")
        while idx < len(candidates) and any(
            _crosses(candidates[idx], r) for r in accepted
        ):
            idx += 1
        if idx == len(candidates):
            leaves.add(accepted)
            continue
        if (accepted, idx) in visited:
            continue
        visited.add((accepted, idx))
        stack.append((accepted, idx + 1))
        extended = accepted | {candidates[idx]}
        if _disjoint(gn, gen_language(StarGeneralization(w, extended))):
            stack.append((extended, idx + 1))

    parts = [
        gen_language(StarGeneralization(w, ranges))
        for ranges in _maximal_sets(leaves)
    ]
    return union(*parts)


def max_eps_generalize(g: Cfg, w: Sequence[str], budget: int = DEFAULT_BUDGET) -> Nfa:
    """Union of every valid epsilon generalization of ``w`` against ``L(g)``."""
    w = tuple(w)
    if in_language(g, w):
        raise GrammarError("witness is in the language; it cannot be generalized")
    base = word_automaton(w)
    session = PrestarSession(g, base)
    candidates = _eps_candidates(w)
    visited: set[tuple[frozenset, int]] = set()
    leaves: set[frozenset] = set()
    calls = 0

    # depth-first over the include/exclude tree, include branch first; a
    # (None, token) entry rolls the session back once the include subtree ends
    stack: list[tuple[int | None, tuple[int, int] | None]] = [(0, None)]
    while stack:
        idx, token = stack.pop()
        if idx is None:
            session.rollback(token)
            continue
        calls += 1
        if calls > budget:
            raise BudgetExceededError(f"budget of {budget} calls exhausted")
        if idx == len(candidates):
            leaves.add(frozenset(session.edges))
            continue
        key = (frozenset(session.edges), idx)
        if key in visited:
            continue
        visited.add(key)
        stack.append((idx + 1, None))
        token = session.snapshot()
        if session.try_add(candidates[idx]):
            stack.append((None, token))
            stack.append((idx + 1, None))

    parts = [
        Nfa(
            base.num_states,
            base.alphabet,
            base.transitions | edges,
            base.initial,
            base.accepting,
        )
        for edges in _maximal_sets(leaves)
    ]
    return union(*parts)
