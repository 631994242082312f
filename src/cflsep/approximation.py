"""Regular over-approximation of context-free grammars.

Two abstractions: the coarsest one (the full word monoid over the alphabet)
and the strongly-regular construction, which rewrites each mutually
recursive block that is not uniformly left- or right-linear into a
right-linear block, then compiles the result to a finite automaton. The
compiled automaton accepts every word of the grammar, with equality when
the grammar was strongly regular to begin with.
"""

from __future__ import annotations

from typing import Iterable

from .grammar import Cfg, Production, Symbol, fresh_name, nt, sccs
from .nfa import Nfa, _nfa, trim


class ApproximationError(ValueError):
    """Raised when make_fa is handed a grammar that is not strongly regular."""


def sigma_star(alphabet: tuple[str, ...] | list[str]) -> Nfa:
    """Single-state automaton accepting every word over ``alphabet``."""
    alpha = tuple(dict.fromkeys(alphabet))
    transitions = frozenset((0, sym, 0) for sym in alpha)
    return _nfa(1, alpha, transitions, 0, frozenset({0}))


def _block_kind(block: tuple[str, ...], prods: Iterable[Production]) -> str | None:
    """How the members of ``block`` use each other in ``prods``, its productions.

    "flat": no member uses a member, so the block is not recursive.
    "left": members occur only first in a right-hand side (left-linear).
    "right": members occur only last (right-linear).
    "cyclic": members occur only alone, as unit productions.
    ``None``: some member occurs in non-first position and some member in
    non-last position, so the block is neither left- nor right-linear.
    """
    members = set(block)
    recursive = len(block) > 1
    not_first = not_last = False
    for p in prods:
        for i, sym in enumerate(p.rhs):
            if not sym.terminal and sym.name in members:
                recursive = True
                not_first |= i > 0
                not_last |= i < len(p.rhs) - 1
    if not recursive:
        return "flat"
    if not_first and not_last:
        return None
    return "left" if not_last else "right" if not_first else "cyclic"


def strongly_regular(g: Cfg) -> Cfg:
    """Conservatively break unbounded left/right communication.

    Every mutually recursive block of the result is uniformly left- or
    right-linear when nonterminals outside the block are read as terminals,
    so the result's language is regular and contains ``L(g)``. Blocks that
    are already uniform are copied untouched; the others are rewritten into
    right-linear productions threaded through fresh continuation
    nonterminals (one primed copy per block member, each with an epsilon
    production).
    """
    partition = sccs(g)
    used = set(g.variables) | set(g.terminals)
    variables = list(g.variables)
    productions: list[Production] = []
    prods_of: list[list[Production]] = [[] for _ in partition.blocks]
    for p in g.productions:
        prods_of[partition.index[p.lhs]].append(p)

    for block, block_prods in zip(partition.blocks, prods_of):
        members = set(block)
        if _block_kind(block, block_prods) is not None:
            productions.extend(block_prods)
            continue

        primed = {a: fresh_name(a, used) for a in block}
        for a in block:
            variables.append(primed[a])
            productions.append(Production(primed[a], ()))
        for p in block_prods:
            # split rhs at block members: alpha_0 B_1 alpha_1 ... B_m alpha_m
            segments: list[list[Symbol]] = [[]]
            anchors: list[str] = []
            for sym in p.rhs:
                if not sym.terminal and sym.name in members:
                    anchors.append(sym.name)
                    segments.append([])
                else:
                    segments[-1].append(sym)
            if not anchors:
                productions.append(
                    Production(p.lhs, tuple(segments[0]) + (nt(primed[p.lhs]),))
                )
                continue
            productions.append(
                Production(p.lhs, tuple(segments[0]) + (nt(anchors[0]),))
            )
            for k in range(1, len(anchors)):
                productions.append(
                    Production(
                        primed[anchors[k - 1]],
                        tuple(segments[k]) + (nt(anchors[k]),),
                    )
                )
            productions.append(
                Production(
                    primed[anchors[-1]],
                    tuple(segments[-1]) + (nt(primed[p.lhs]),),
                )
            )

    return Cfg(tuple(variables), g.terminals, tuple(productions), g.start)


class _Builder:
    def __init__(self, grammar: Cfg) -> None:
        self.partition = sccs(grammar)
        self.num_states = 0
        self.transitions: set[tuple[int, str | None, int]] = set()
        self._by_lhs: dict[str, list[Production]] = {v: [] for v in grammar.variables}
        for p in grammar.productions:
            self._by_lhs[p.lhs].append(p)
        self._kinds = [
            _block_kind(block, (p for c in block for p in self._by_lhs[c]))
            for block in self.partition.blocks
        ]
        # a flat nonterminal's right-hand sides, last first: its tasks as pushed
        self._flat = {
            v: [p.rhs for p in reversed(prods)]
            for v, prods in self._by_lhs.items()
            if self._kinds[self.partition.index[v]] == "flat"
        }

    def fresh_state(self) -> int:
        self.num_states += 1
        return self.num_states - 1

    def emit(self, q0: int, seq: tuple[Symbol, ...], q1: int) -> None:
        """Add a path from q0 to q1 reading ``seq``.

        Works off an explicit stack of (from, rhs, index, to) tasks, each a
        path reading ``rhs[index:]``, first task on top, so deep or long rules
        cannot exhaust the recursion limit and fresh states are numbered as a
        left-to-right expansion meets them. Flat nonterminals are expanded in
        the loop; recursive blocks by ``expand_block``.
        """
        add, flat = self.transitions.add, self._flat
        stack = [(q0, seq, 0, q1)]
        pop, push, extend = stack.pop, stack.append, stack.extend
        while stack:
            q0, rhs, i, q1 = pop()
            if i == len(rhs):
                add((q0, None, q1))
                continue
            sym = rhs[i]
            if i + 1 < len(rhs):
                # the symbol runs to a fresh state; the rest waits
                mid = self.num_states
                self.num_states += 1
                push((mid, rhs, i + 1, q1))
                q1 = mid
            if sym.terminal:
                add((q0, sym.name, q1))
            elif sym.name in flat:
                extend([(q0, seq, 0, q1) for seq in flat[sym.name]])
            else:
                extend(reversed(self.expand_block(q0, sym.name, q1)))

    def expand_block(
        self, q0: int, var: str, q1: int
    ) -> list[tuple[int, tuple[Symbol, ...], int, int]]:
        """The emit tasks, in order, of a path from q0 to q1 derived from
        ``var``, a member of a recursive block."""
        block_id = self.partition.index[var]
        block = self.partition.blocks[block_id]
        kind = self._kinds[block_id]
        if kind is None:
            raise ApproximationError(
                f"block {block} is not uniformly left- or right-linear"
            )

        members = set(block)
        state_of = {member: self.fresh_state() for member in block}
        tasks = []
        if kind == "left":
            for c in block:
                for p in self._by_lhs[c]:
                    if all(s.terminal or s.name not in members for s in p.rhs):
                        tasks.append((q0, p.rhs, 0, state_of[c]))
                    else:
                        tasks.append((state_of[p.rhs[0].name], p.rhs, 1, state_of[c]))
            self.transitions.add((state_of[var], None, q1))
        else:  # right or cyclic
            for c in block:
                for p in self._by_lhs[c]:
                    if all(s.terminal or s.name not in members for s in p.rhs):
                        tasks.append((state_of[c], p.rhs, 0, q1))
                    else:
                        tasks.append((state_of[c], p.rhs[:-1], 0, state_of[p.rhs[-1].name]))
            self.transitions.add((q0, None, state_of[var]))
        return tasks


def make_fa(g: Cfg) -> Nfa:
    """Compile a strongly regular grammar into a finite automaton.

    Raises ``ApproximationError`` when a reachable recursive block is neither
    left- nor right-linear. Recursion is closed through one state per block
    member: "left" blocks hook the member state to the caller's final state,
    "right" and "cyclic" blocks hook the caller's initial state to the
    member state. Each encounter of a recursive nonterminal instantiates the
    block afresh, which is finite because the block condensation is acyclic.
    """
    builder = _Builder(g)
    q0 = builder.fresh_state()
    qf = builder.fresh_state()
    builder.emit(q0, (nt(g.start),), qf)
    transitions = frozenset(builder.transitions)
    return trim(_nfa(builder.num_states, g.terminals, transitions, q0, frozenset({qf})))


def nederhof(g: Cfg) -> Nfa:
    """Regular over-approximation: strongly-regular rewrite, then make_fa."""
    return make_fa(strongly_regular(g))
