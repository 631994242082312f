"""Saturation-based emptiness of L(G) ∩ L(A), and with it membership.

A set of triples (state, symbol, state) is closed under the production
rules of a grammar in normal form (A -> XY | X | ε, with X and Y any
symbols): a triple (q, X, q') means some word taking the automaton from q
to q' is derivable from X. Epsilon edges of the automaton are triples too
and compose with every other triple, so generalization edges added later
need no re-elimination. The intersection is nonempty exactly when the
start symbol spans an initial-to-accepting pair. Membership of a word is
the same question on the word's chain automaton. Labels and nonterminal
names share one namespace, so an automaton edge enters only when labelled ε
or by a terminal of the grammar: a foreign terminal derives nothing, even
one spelled like a nonterminal.

Each triple is held once in each of three views: r in the set
``by_start[q][X]``, q in ``by_end[r][X]``, and the ``journal`` in derivation
order. A rule joins a new triple to all its partners by one difference of
two rows, so only triples not yet held reach the journal, whose unprocessed
tail is the worklist. Saturation can stop at a goal, the start symbol
spanning initial to accepting, which stays met once met. A grammar's normal
form and rule indexes are built once per ``Cfg`` value and shared read-only.

A PrestarSession saturates a base automaton once and takes batches of edges
between its states, each labelled ε or by a symbol of its alphabet. It also
derives context triples, a hat for each nonterminal, seeded with (accepting,
S^, initial): (r, A^, q) means some u leads from the initial state to q,
some v from r to an accepting state, and S =>* u A v. The hole and terminal
contexts are looked up: a few joins of held triples say whether a word of
L(g) is read along the edge (q, x, r), and reject it, and any batch of edges
holding it; other batches are saturated up to the goal and kept, on a stack
that ``pop`` unwinds, or truncated back whole. Sessions are single-owner
mutable values.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from typing import Iterable, Sequence

from .grammar import Cfg, GrammarError, Production, fresh_name, normalize, nt
from .nfa import Nfa, _nfa, eliminate_epsilon, word_automaton

_EMPTY: frozenset[int] = frozenset()
_NONE: tuple = ((), (), ())  # the rule index entry of a symbol that no rule reads


def _index(productions: Iterable[Production]) -> dict[str, tuple[list, list, list]]:
    """The rule index ``of`` of normal-form ``productions``: ``of[X]`` holds
    the A with A -> X, the (A, C) with A -> XC and the (A, B) with A -> BX."""
    of: dict[str, tuple[list, list, list]] = {}
    for p in productions:
        names = [x.name for x in p.rhs]
        if len(names) == 1:
            of.setdefault(names[0], ([], [], []))[0].append(p.lhs)
        elif names:
            of.setdefault(names[0], ([], [], []))[1].append((p.lhs, names[1]))
            of.setdefault(names[1], ([], [], []))[2].append((p.lhs, names[0]))
    return of


@lru_cache(maxsize=16)  # past 16 grammars in one query, each entry is evicted before its next use
def _rules(g: Cfg) -> tuple[Cfg, frozenset[str], tuple[str, ...], dict[str, tuple[list, list, list]]]:
    """``normalize(g)``, its terminals, its ε-rule heads and its rule index,
    built once per grammar value."""
    gn = normalize(g)
    return gn, frozenset(gn.terminals), tuple(p.lhs for p in gn.productions if not p.rhs), _index(gn.productions)


@lru_cache(maxsize=16)  # slots of its own, evicted alike past 16 grammars: a session fills one of _rules as well
def _context(g: Cfg) -> tuple[Cfg, dict[str, tuple[list, list, list]], dict[str, str], dict[str, tuple]]:
    """``normalize(g)`` augmented for context triples, its rule index, the
    hat A^ of each nonterminal A, and ``parents``: the rule index of
    ``normalize(g)`` with each head A read as A^. The augmentation adds
    X^ -> Y A^ and Y^ -> A^ X for each A -> XY, and X^ -> A^ for each A -> X,
    each only where the hatted symbol is a nonterminal.

    The hole and terminal contexts get no hat, since no rule reads them:
    ``PrestarSession._used`` joins held triples instead. An edge (q, x, r)
    with x a terminal is read in a word u x v of L(g), u leading from the
    initial state to q and v from r to an accepting state, exactly when the
    leaf x has a parent A with (r, A^, q) for A -> x, (r, Y, s) and (s, A^, q)
    for A -> x Y, or (r, A^, s) and (s, Y, q) for A -> Y x. An ε edge
    (q, ε, r) is passed in a word u v of L(g) exactly when v has no letter
    and (r, S^, p) and (p, S, q) hold; when u has none and (r, S, s) and
    (s, S^, q) hold; or when the lowest node A -> X Y whose yield has letters
    of both u and v splits them between its children, X deriving the end of
    u and Y the start of v, and (p, X, q), (r, Y, s) and (s, A^, p) hold.
    Triples are ε-closed at both ends, so these joins see exactly the
    terminal hats' and the hole's triples that a saturation of their rules
    would derive. A lookup only saves work: one that misses falls through to
    the saturation.
    """
    gn = _rules(g)[0]
    used = set(gn.variables) | set(gn.terminals)
    hat = {x: fresh_name(f"{x}^", used) for x in gn.variables}
    prods = list(gn.productions)
    for p in gn.productions:
        up = nt(hat[p.lhs])
        if len(p.rhs) == 2:
            x, y = p.rhs
            if not x.terminal:
                prods.append(Production(hat[x.name], (y, up)))
            if not y.terminal:
                prods.append(Production(hat[y.name], (up, x)))
        elif p.rhs and not p.rhs[0].terminal:
            prods.append(Production(hat[p.rhs[0].name], (up,)))
    aug = Cfg(gn.variables + tuple(hat.values()), gn.terminals, tuple(prods), gn.start)  # normal form by construction
    parents = {
        x: ([hat[a] for a in units], [(y, hat[a]) for a, y in lefts], [(hat[a], y) for a, y in rights])
        for x, (units, lefts, rights) in _rules(g)[3].items()
    }
    return aug, _index(aug.productions), hat, parents


class _Saturator:
    """Worklist closure of the triples of ``normalize(g)`` over the states of ``a``;
    with ``context``, of ``_context(g)`` seeded with (accepting, S^, initial).

    Invariant: r in ``by_start[q][X]``, q in ``by_end[r][X]`` and the
    ``journal`` entry (q, X, r) are there for exactly the same triples, and
    ``goal_met`` says whether one of them is (initial, start, accepting).
    ``journal[done:]`` is the worklist, and at a fixpoint ``done ==
    len(journal)``. ``steps`` counts one per processed journal entry plus one
    per call of ``add`` (a seed, an automaton edge or a unit rule), whether or
    not it finds a new triple; row differences are not counted apart. Rows are
    sets: an int mask is as wide as its highest state (2.6 GB on a 32,770-state DFA).
    """

    def __init__(self, g: Cfg, a: Nfa, context: bool = False) -> None:
        self.grammar, self.terminals, eps_lhs, self.rules = _rules(g)
        self.start, self.initial, self.accepting = self.grammar.start, a.initial, frozenset(a.accepting)
        self.goal_met = False
        self.by_start: list[dict[str | None, set[int]]] = [defaultdict(set) for _ in a.states]
        self.by_end: list[dict[str | None, set[int]]] = [defaultdict(set) for _ in a.states]
        self.journal: list[tuple[int, str | None, int]] = []
        self.done = self.steps = 0
        for q in a.states:
            for lhs in eps_lhs:
                self.add(q, lhs, q)
        for q, x, r in sorted(a.transitions, key=lambda tr: (tr[0], tr[1] or "", tr[2])):
            self.add_edge(q, x, r)
        if context:  # seeded as a triple, not as an edge: no label can play it
            _, self.rules, self.hat, self.parents = _context(g)
            for f in sorted(a.accepting):
                self.add(f, self.hat[self.start], a.initial)

    def add_edge(self, q: int, x: str | None, r: int) -> None:
        """Enter an automaton edge; only ε and the grammar's terminals count."""
        if x is None or x in self.terminals:
            self.add(q, x, r)

    def add(self, q: int, sym: str | None, r: int) -> None:
        self.steps += 1
        if r not in self.by_start[q][sym]:
            self._ends(q, sym, {r})

    def _ends(self, q: int, sym: str | None, ends: set[int]) -> None:
        """Hold (q, sym, r) for each r in ``ends``; none is held yet."""
        self.by_start[q][sym] |= ends
        for r in ends:
            self.by_end[r][sym].add(q)
            self.journal.append((q, sym, r))
        if q == self.initial and sym == self.start and not self.accepting.isdisjoint(ends):
            self.goal_met = True

    def _starts(self, starts: set[int], sym: str | None, r: int) -> None:
        """Hold (q, sym, r) for each q in ``starts``; none is held yet."""
        self.by_end[r][sym] |= starts
        for q in starts:
            self.by_start[q][sym].add(r)
            self.journal.append((q, sym, r))
        if sym == self.start and r in self.accepting and self.initial in starts:
            self.goal_met = True

    def saturate(self, stop_at_goal: bool = False) -> bool:
        """Process the worklist up to the fixpoint or, if ``stop_at_goal``, until
        the goal is met; returns ``goal_met``."""
        by_start, by_end, journal, i = self.by_start, self.by_end, self.journal, self.done
        of, none, add, ends, starts = self.rules, _NONE, self.add, self._ends, self._starts
        while i < len(journal) and not (stop_at_goal and self.goal_met):
            q, sym, r = journal[i]
            i += 1
            row_q, row_r, col_q, col_r = by_start[q], by_start[r], by_end[q], by_end[r]
            if sym is None:
                # ε composes with every triple on either side; a row iterated
                # here changes only when q == r, where nothing is new
                for sym2, rs in row_r.items():
                    new = rs - row_q[sym2]
                    if new:
                        ends(q, sym2, new)
                for sym2, qs in col_q.items():
                    new = qs - col_r[sym2]
                    if new:
                        starts(new, sym2, r)
                continue
            units, lefts, rights = of.get(sym, none)
            for lhs in units:
                add(q, lhs, r)
            for lhs, c in lefts:
                new = c in row_r and row_r[c] - row_q[lhs]
                if new:
                    ends(q, lhs, new)
            for lhs, b in rights:
                new = b in col_q and col_q[b] - col_r[lhs]
                if new:
                    starts(new, lhs, r)
            new = None in row_r and row_r[None] - row_q[sym]
            if new:
                ends(q, sym, new)
            new = None in col_q and col_q[None] - col_r[sym]
            if new:
                starts(new, sym, r)
        self.steps += i - self.done
        self.done = i
        return self.goal_met

    def revert(self, mark: int) -> None:
        """Drop the triples journaled from ``mark``, a fixpoint's journal length, on."""
        by_start, by_end = self.by_start, self.by_end
        for q, sym, r in self.journal[mark:]:
            by_start[q][sym].discard(r)
            by_end[r][sym].discard(q)
        del self.journal[mark:]
        self.done = mark
        self.goal_met = not self.accepting.isdisjoint(by_start[self.initial][self.start])


def intersects(g: Cfg, a: Nfa) -> bool:
    """True iff L(g) ∩ L(a) is nonempty. Accepts any grammar and automaton,
    which is saturated untrimmed: no initial-to-accepting path has a useless state."""
    return _Saturator(g, eliminate_epsilon(a)).saturate(stop_at_goal=True)


def in_language(g: Cfg, word: Sequence[str]) -> bool:
    """True iff ``word`` is in L(g). Total: a word with a symbol outside the
    grammar's alphabet is outside the language, as the engine needs."""
    return intersects(g, word_automaton(word))


class PrestarSession:
    """Incremental intersection-emptiness over a growing automaton.

    The session saturates its ``base`` automaton once and then takes batches
    of edges through ``try_add``, all or nothing; each edge must join two of
    the base's states and be labelled ε or by a symbol of its alphabet. The
    session also holds context triples, a hat for each nonterminal; the hole
    and terminal contexts are looked up by joining them (``_used``). A batch
    with an edge that the lookup puts in a word of L(g) is rejected without
    a saturation; any other is added whole and committed only if the start
    symbol still spans no initial-to-accepting pair, and is otherwise
    truncated back exactly with its triples, as ``pop`` truncates the
    newest committed one. Every call ends at a fixpoint, so the journal's
    length is always a valid revert point. A session over a word is one over
    its chain automaton, ``PrestarSession(g, word_automaton(w))``.
    """

    def __init__(self, grammar: Cfg, base: Nfa) -> None:
        self.base = base
        self.edges: list[tuple[tuple[int, str | None, int], ...]] = []  # committed batches, newest last
        self._marks: list[int] = []  # the journal's length before each committed batch
        self._sat = _Saturator(grammar, base, context=True)
        self._sat.saturate()
        self.grammar = self._sat.grammar

    @property
    def steps(self) -> int:
        return self._sat.steps

    def intersects(self) -> bool:
        return self._sat.saturate()  # at a fixpoint: only the goal check

    def _validate(self, edge: tuple[int, str | None, int]) -> None:
        src, label, dst = edge
        if not (0 <= src < self.base.num_states and 0 <= dst < self.base.num_states):
            raise GrammarError(f"edge endpoints out of range: {edge}")
        if label is not None and label not in self.base.alphabet:
            raise GrammarError(f"edge label {label!r} not in the base automaton's alphabet: {edge}")

    def try_add(self, batch: Iterable[tuple[int, str | None, int]]) -> bool:
        """Add a batch of edges and commit it if L(g) stays excluded; report acceptance."""
        batch = tuple(batch)
        for edge in batch:
            self._validate(edge)
        for edge in batch:
            if self._used(*edge):
                return False
        sat = self._sat
        mark = len(sat.journal)
        for edge in batch:
            sat.add_edge(*edge)
        if sat.saturate(stop_at_goal=True):
            sat.revert(mark)
            return False
        self.edges.append(batch)
        self._marks.append(mark)
        return True

    def _used(self, q: int, x: str | None, r: int) -> bool:
        """Whether the held triples put the edge (q, x, r) in a word of L(g),
        read along a run that takes it once: the joins of ``_context``."""
        sat = self._sat
        by_start, parents = sat.by_start, sat.parents
        row, col = by_start[r], sat.by_end[q]
        if x is not None:
            if x not in sat.terminals:
                return False
            units, lefts, rights = parents.get(x, _NONE)
            for up in units:  # A -> x
                if q in row.get(up, ()):
                    return True
            for y, up in lefts:  # A -> x Y
                if not row.get(y, _EMPTY).isdisjoint(col.get(up, ())):
                    return True
            for up, y in rights:  # A -> Y x
                if not row.get(up, _EMPTY).isdisjoint(col.get(y, ())):
                    return True
            return False
        start, start_hat = sat.start, sat.hat[sat.start]
        if not row.get(start_hat, _EMPTY).isdisjoint(col.get(start, ())):
            return True  # nothing is read after the edge
        if not row.get(start, _EMPTY).isdisjoint(col.get(start_hat, ())):
            return True  # nothing is read before it
        for sym, ps in col.items():  # A -> X Y, X read up to q and Y from r
            for y, up in parents.get(sym, _NONE)[1]:
                for s in row.get(y, ()):
                    if not ps.isdisjoint(by_start[s].get(up, ())):
                        return True
        return False

    def pop(self) -> None:
        """Undo the newest committed batch and its triples; IndexError if none."""
        self._sat.revert(self._marks.pop())
        self.edges.pop()

    def automaton(self) -> Nfa:
        """Base automaton plus every committed edge, each checked by ``try_add``."""
        base = self.base
        transitions = base.transitions.union(*self.edges)
        return _nfa(base.num_states, base.alphabet, transitions, base.initial, base.accepting)
