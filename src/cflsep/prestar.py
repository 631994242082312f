"""Saturation-based emptiness of L(G) ∩ L(A), and with it membership.

A set of triples (state, symbol, state) is closed under the production
rules of a grammar in normal form (A -> BC | a | B | ε): a triple
(q, X, q') means some word taking the automaton from q to q' is derivable
from X. Epsilon edges of the automaton are triples too and compose with
every other triple, so generalization edges added later need no
re-elimination. The intersection is nonempty exactly when the start symbol
spans an initial-to-accepting pair. Membership of a word is the same
question on the word's chain automaton. Labels and nonterminal names share
one namespace, so an automaton edge enters only when labelled ε or by a
terminal of the grammar: a foreign terminal derives nothing, even one
spelled like a nonterminal.

Each triple is held once in each of three views: ``by_start``, ``by_end``
and the ``journal`` in derivation order. The journal's unprocessed tail is
the worklist, so PrestarSession can tentatively add one edge, re-saturate,
and either commit or truncate the journal back to the byte-identical
previous state. Sessions are single-owner mutable values.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from .grammar import Cfg, GrammarError, is_normal_form, normalize
from .nfa import Nfa, eliminate_epsilon, trim, word_automaton


class _Saturator:
    """Worklist closure of the derivability triples over a fixed state set.

    Invariant: ``by_start[q][X]`` holds r, ``by_end[r][X]`` holds q and
    ``journal`` lists (q, X, r), for exactly the same triples; ``by_start``
    is the membership test. ``journal[done:]`` is the worklist, and at a
    fixpoint ``done == len(journal)``. ``steps`` counts rule applications
    (calls of ``add``), whether or not they find a new triple.
    """

    def __init__(self, gn: Cfg, num_states: int) -> None:
        if not is_normal_form(gn):
            raise GrammarError("saturation requires a grammar in normal form")
        self.num_states = num_states
        self.terminals = frozenset(gn.terminals)
        self.eps_lhs: list[str] = []
        self.term_rules: dict[str, list[str]] = {}
        self.unit_rules: dict[str, list[str]] = {}
        self.bin_left: dict[str, list[tuple[str, str]]] = {}
        self.bin_right: dict[str, list[tuple[str, str]]] = {}
        for p in gn.productions:
            if len(p.rhs) == 0:
                self.eps_lhs.append(p.lhs)
            elif len(p.rhs) == 1 and p.rhs[0].terminal:
                self.term_rules.setdefault(p.rhs[0].name, []).append(p.lhs)
            elif len(p.rhs) == 1:
                self.unit_rules.setdefault(p.rhs[0].name, []).append(p.lhs)
            else:
                b, c = p.rhs[0].name, p.rhs[1].name
                self.bin_left.setdefault(b, []).append((p.lhs, c))
                self.bin_right.setdefault(c, []).append((p.lhs, b))

        self.by_start: list[dict[str | None, set[int]]] = [{} for _ in range(num_states)]
        self.by_end: list[dict[str | None, set[int]]] = [{} for _ in range(num_states)]
        self.journal: list[tuple[int, str | None, int]] = []
        self.done = 0
        self.steps = 0

    def seed(self, transitions: Sequence[tuple[int, str | None, int]]) -> None:
        for q in range(self.num_states):
            for lhs in self.eps_lhs:
                self.add(q, lhs, q)
        for q, x, r in sorted(
            transitions, key=lambda tr: (tr[0], tr[1] or "", tr[2])
        ):
            self.add_edge(q, x, r)

    def add_edge(self, q: int, x: str | None, r: int) -> None:
        """Enter an automaton edge; only ε and the grammar's terminals count."""
        if x is None or x in self.terminals:
            self.add(q, x, r)

    def add(self, q: int, sym: str | None, r: int) -> None:
        self.steps += 1
        targets = self.by_start[q].get(sym)
        if targets is None:
            self.by_start[q][sym] = {r}
        elif r in targets:
            return
        else:
            targets.add(r)
        sources = self.by_end[r].get(sym)
        if sources is None:
            self.by_end[r][sym] = {q}
        else:
            sources.add(q)
        self.journal.append((q, sym, r))

    def saturate(self) -> None:
        journal, i = self.journal, self.done
        while i < len(journal):
            q, sym, r = journal[i]
            i += 1
            if sym is None:
                # epsilon composes with everything on either side
                for sym2, targets in list(self.by_start[r].items()):
                    for r2 in list(targets):
                        self.add(q, sym2, r2)
                for sym2, sources in list(self.by_end[q].items()):
                    for q0 in list(sources):
                        self.add(q0, sym2, r)
                continue
            for lhs in self.term_rules.get(sym, ()):
                self.add(q, lhs, r)
            for lhs in self.unit_rules.get(sym, ()):
                self.add(q, lhs, r)
            for lhs, c in self.bin_left.get(sym, ()):
                for r2 in list(self.by_start[r].get(c, ())):
                    self.add(q, lhs, r2)
            for lhs, b in self.bin_right.get(sym, ()):
                for q0 in list(self.by_end[q].get(b, ())):
                    self.add(q0, lhs, r)
            for r2 in list(self.by_start[r].get(None, ())):
                self.add(q, sym, r2)
            for q0 in list(self.by_end[q].get(None, ())):
                self.add(q0, sym, r)
        self.done = i

    def mark(self) -> int:
        assert self.done == len(self.journal), "mark only valid at a fixpoint"
        return self.done

    def revert(self, mark: int) -> None:
        while len(self.journal) > mark:
            q, sym, r = self.journal.pop()
            self.by_start[q][sym].discard(r)
            self.by_end[r][sym].discard(q)
        self.done = mark

    def spans(self, initial: int, accepting: frozenset[int], start: str) -> bool:
        targets = self.by_start[initial].get(start)
        return bool(targets and targets & accepting)


def prestar(g: Cfg, a: Nfa) -> Nfa:
    """Saturated automaton recognizing the derivation predecessors of L(a).

    ``g`` must already be in normal form; states and transitions of ``a``
    are preserved, and the result's alphabet is extended with the grammar's
    nonterminals (a nonterminal-labeled transition (q, A, q') records that A
    derives some word read between q and q').
    """
    if not is_normal_form(g):
        raise GrammarError("prestar requires a grammar in normal form")
    sat = _Saturator(g, a.num_states)
    sat.seed(tuple(a.transitions))
    sat.saturate()
    alphabet = a.alphabet + tuple(v for v in g.variables if v not in set(a.alphabet))
    transitions = a.transitions | frozenset(sat.journal)
    return Nfa(a.num_states, alphabet, transitions, a.initial, a.accepting)


def intersects(g: Cfg, a: Nfa) -> bool:
    """True iff L(g) ∩ L(a) is nonempty. Accepts any grammar and automaton."""
    gn = normalize(g)
    compact = trim(eliminate_epsilon(a))
    if not compact.accepting:
        return False
    sat = _Saturator(gn, compact.num_states)
    sat.seed(tuple(compact.transitions))
    sat.saturate()
    return sat.spans(compact.initial, compact.accepting, gn.start)


def in_language(g: Cfg, word: Sequence[str]) -> bool:
    """True iff ``word`` is in L(g). Total: a word with a symbol outside the
    grammar's alphabet is outside the language, as the engine needs."""
    return intersects(g, word_automaton(word))


class PrestarSession:
    """Incremental intersection-emptiness over a growing word automaton.

    The base automaton is the chain for ``word``; edges added through
    ``try_add`` must have the two generalization shapes: a forward epsilon
    edge (i, ε, j) with i < j, or a backward edge (j-1, w_j, i) with i < j
    that replays the chain's own label. A tentative edge is committed only
    if the start symbol still does not span initial to accepting; otherwise
    the triples and the edge are rolled back exactly.
    """

    def __init__(self, grammar: Cfg, word: Sequence[str]) -> None:
        self.word = tuple(word)
        self.grammar = normalize(grammar)
        self.base = base = word_automaton(self.word)
        self.edges: list[tuple[int, str | None, int]] = []
        self._sat = _Saturator(self.grammar, base.num_states)
        self._sat.seed(tuple(base.transitions))
        self._sat.saturate()

    @property
    def steps(self) -> int:
        return self._sat.steps

    def intersects(self) -> bool:
        return self._sat.spans(
            self.base.initial, self.base.accepting, self.grammar.start
        )

    def snapshot(self) -> tuple[int, int]:
        return (self._sat.mark(), len(self.edges))

    def rollback(self, token: tuple[int, int]) -> None:
        mark, edge_mark = token
        self._sat.revert(mark)
        del self.edges[edge_mark:]

    def _validate(self, edge: tuple[int, str | None, int]) -> None:
        src, label, dst = edge
        n = len(self.word)
        if not (0 <= src <= n and 0 <= dst <= n):
            raise GrammarError(f"edge endpoints out of range: {edge}")
        if label is None:
            if not src < dst:
                raise GrammarError(f"epsilon edges must point forward: {edge}")
        else:
            if src >= n or label != self.word[src]:
                raise GrammarError(
                    f"backward edge must reuse the chain label {self.word[src] if src < n else '?'!r}: {edge}"
                )
            if dst > src:
                raise GrammarError(f"labeled edges must point backward: {edge}")

    def try_add(self, edge: tuple[int, str | None, int]) -> bool:
        """Tentatively add one generalization edge; report acceptance."""
        self._validate(edge)
        if edge in self.edges:
            return True
        token = self.snapshot()
        self._sat.add_edge(*edge)
        self._sat.saturate()
        if self.intersects():
            self.rollback(token)
            return False
        self.edges.append(edge)
        return True

    def automaton(self) -> Nfa:
        """Base chain plus every committed edge."""
        return replace(self.base, transitions=self.base.transitions | frozenset(self.edges))
