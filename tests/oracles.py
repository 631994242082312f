"""Small brute-force reference constructions for the property-test suite.

The star contraction of a union-free regular expression is the finite
family of sub-languages obtained by weakening starred subterms: each
starred subterm may be restricted to any subset of the contractions of its
body. The full star-generalization family of a word enumerates every way of
wrapping nested repetition around its substrings. Both sets are compared at
bounded word length; nothing here is meant to scale.

The module also holds the brute-force word-level predicates the tests
compare the library with: automaton acceptance and bounded enumeration by
subset simulation, language equivalence, the pairs of equivalent states
of a DFA by table filling, the plain product construction, and bounded
enumeration of a grammar's words;
a naive set-based pre* fixpoint that the saturation kernel is compared
with triple for triple; and a grammar-file tokenizer that walks the text
keeping a running line and column, against which the parser's token
offsets and error positions are compared.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable

from cflsep.grammar import Cfg, GrammarError, normalize
from cflsep.grammar_io import ParseError
from cflsep.nfa import Nfa, complement, intersect, is_empty


@dataclass(frozen=True)
class Regex:
    """Regular expression tree. ``op`` is one of lit, eps, cat, star, alt.

    Union-free expressions never use ``alt``; contraction results may.
    """

    op: str
    sym: str = ""
    parts: tuple["Regex", ...] = ()

    def __repr__(self) -> str:
        if self.op == "eps":
            return "ε"
        if self.op == "lit":
            return self.sym
        if self.op == "cat":
            return "".join(
                f"({p!r})" if p.op == "alt" else repr(p) for p in self.parts
            )
        if self.op == "star":
            inner = repr(self.parts[0])
            if self.parts[0].op in ("cat", "alt") or len(inner) > 1:
                inner = f"({inner})"
            return f"{inner}*"
        return "|".join(repr(p) for p in self.parts)

    def is_union_free(self) -> bool:
        if self.op == "alt":
            return False
        return all(p.is_union_free() for p in self.parts)


def lit(sym: str) -> Regex:
    return Regex("lit", sym=sym)


EPS = Regex("eps")


def cat(*parts: Regex) -> Regex:
    flat: list[Regex] = []
    for p in parts:
        if p.op == "cat":
            flat.extend(p.parts)
        elif p.op != "eps":
            flat.append(p)
    if not flat:
        return EPS
    if len(flat) == 1:
        return flat[0]
    return Regex("cat", parts=tuple(flat))


def star(inner: Regex) -> Regex:
    return Regex("star", parts=(inner,))


def alt(*parts: Regex) -> Regex:
    if not parts:
        raise GrammarError("empty alternation has no language here")
    uniq = tuple(dict.fromkeys(parts))
    if len(uniq) == 1:
        return uniq[0]
    return Regex("alt", parts=uniq)


def regex_to_nfa(e: Regex) -> Nfa:
    """Thompson construction; alphabet is the set of literals used."""
    transitions: list[tuple[int, str | None, int]] = []
    counter = [0]
    symbols: list[str] = []

    def fresh() -> int:
        counter[0] += 1
        return counter[0] - 1

    def build(node: Regex) -> tuple[int, int]:
        s, e = fresh(), fresh()
        if node.op == "eps":
            transitions.append((s, None, e))
        elif node.op == "lit":
            if node.sym not in symbols:
                symbols.append(node.sym)
            transitions.append((s, node.sym, e))
        elif node.op == "cat":
            cur = s
            for part in node.parts:
                ps, pe = build(part)
                transitions.append((cur, None, ps))
                cur = pe
            transitions.append((cur, None, e))
        elif node.op == "star":
            ps, pe = build(node.parts[0])
            transitions.extend(
                [(s, None, ps), (pe, None, e), (s, None, e), (pe, None, ps)]
            )
        else:
            for part in node.parts:
                ps, pe = build(part)
                transitions.append((s, None, ps))
                transitions.append((pe, None, e))
        return s, e

    start, end = build(e)
    return Nfa(counter[0], tuple(symbols), frozenset(transitions), start, frozenset({end}))


_LANGUAGES: dict[frozenset, frozenset] = {}


@lru_cache(maxsize=None)
def bounded_language(e: Regex, max_len: int) -> frozenset[tuple[str, ...]]:
    """The words of ``L(e)`` of length at most ``max_len``, read off the tree.

    Memoized per subterm, since the oracle properties ask for the same
    expressions' words many times; equal languages share one frozenset,
    because tens of thousands of expressions have only a few thousand
    languages.
    """
    if e.op == "eps":
        lang = {()}
    elif e.op == "lit":
        lang = {(e.sym,)} if max_len >= 1 else set()
    elif e.op == "alt":
        lang = set().union(*(bounded_language(p, max_len) for p in e.parts))
    elif e.op == "cat":
        lang = {()}
        for part in e.parts:
            words = bounded_language(part, max_len)
            lang = {u + v for u in lang for v in words if len(u) + len(v) <= max_len}
    else:
        # star, by length: a word of length n is a nonempty body word u
        # followed by a starred word of length n - |u|
        body = [u for u in bounded_language(e.parts[0], max_len) if u]
        by_len: list[set[tuple[str, ...]]] = [{()}]
        for n in range(1, max_len + 1):
            by_len.append(
                {u + v for u in body if len(u) <= n for v in by_len[n - len(u)]}
            )
        lang = set().union(*by_len)
    lang = frozenset(lang)
    return _LANGUAGES.setdefault(lang, lang)


def _dedup_structural(items: Iterable[Regex]) -> list[Regex]:
    return list(dict.fromkeys(items))


def star_contractions(e: Regex) -> list[Regex]:
    """All weakenings of a union-free expression's starred subterms.

    A literal contracts to itself; a concatenation contracts pointwise; a
    starred body may be replaced by the star of the union of any subset of
    the body's contractions (the empty subset giving the empty word).
    Results are deduplicated structurally only; callers comparing languages
    should dedup by bounded language.
    """
    if not e.is_union_free():
        raise GrammarError("star contraction is defined on union-free expressions")

    def go(node: Regex) -> list[Regex]:
        if node.op in ("lit", "eps"):
            return [node]
        if node.op == "cat":
            options = [go(p) for p in node.parts]
            results = [EPS]
            for opts in options:
                results = [cat(r, o) for r in results for o in opts]
            return _dedup_structural(results)
        inner = go(node.parts[0])
        subsets = chain.from_iterable(
            combinations(inner, k) for k in range(len(inner) + 1)
        )
        out = []
        for subset in subsets:
            if not subset:
                out.append(EPS)
            else:
                out.append(star(alt(*subset)))
        return _dedup_structural(out)

    return go(e)


def star_generalizations(w: tuple[str, ...], max_len: int = 4) -> list[Regex]:
    """Every expression obtainable by wrapping nested stars around
    substrings of ``w``; grows very fast, so the word length is capped."""
    if len(w) > max_len:
        raise GrammarError(f"word longer than the configured bound {max_len}")

    @lru_cache(maxsize=None)
    def go(lo: int, hi: int) -> tuple[Regex, ...]:
        if lo == hi:
            return (EPS,)
        if hi - lo == 1:
            base = lit(w[lo])
            return (base, star(base))
        whole = cat(*(lit(s) for s in w[lo:hi]))
        results = {whole, star(whole)}
        for mid in range(lo + 1, hi):
            for left in go(lo, mid):
                for right in go(mid, hi):
                    joined = cat(left, right)
                    results.add(joined)
                    results.add(star(joined))
        # string hashes are randomized per process; sort for a stable order
        return tuple(sorted(results, key=repr))

    return list(go(0, len(w)))


def contraction_matches_generalization(
    e: Regex, w: tuple[str, ...], length_bound: int = 6
) -> bool:
    """Some contraction of ``e`` and some star generalization of ``w`` agree
    as languages up to ``length_bound``. Precondition: w ∈ L(e)."""
    if w not in bounded_language(e, len(w)):
        raise GrammarError("precondition violated: the word must be in L(e)")
    contraction_langs = {
        bounded_language(k, length_bound) for k in star_contractions(e)
    }
    # lazy scan of the (much larger) generalization family, first hit wins
    for x in star_generalizations(w, max_len=len(w)):
        if bounded_language(x, length_bound) in contraction_langs:
            return True
    return False


# ---------------------------------------------------------------------------
# Word-level predicates on automata and grammars
# ---------------------------------------------------------------------------


def _out_edges(a: Nfa) -> list[list[tuple[str | None, int]]]:
    out: list[list[tuple[str | None, int]]] = [[] for _ in a.states]
    for q, x, r in a.transitions:
        out[q].append((x, r))
    return out


def _closure(out: list[list[tuple[str | None, int]]], states: Iterable[int]) -> frozenset[int]:
    seen = set(states)
    stack = list(seen)
    while stack:
        for x, r in out[stack.pop()]:
            if x is None and r not in seen:
                seen.add(r)
                stack.append(r)
    return frozenset(seen)


def _step(
    out: list[list[tuple[str | None, int]]], states: frozenset[int], sym: str
) -> frozenset[int]:
    return _closure(out, {r for q in states for x, r in out[q] if x == sym})


def accepts(a: Nfa, word: Iterable[str]) -> bool:
    """``word`` is in ``L(a)``, by subset simulation."""
    out = _out_edges(a)
    current = _closure(out, {a.initial})
    for sym in word:
        current = _step(out, current, sym)
    return not current.isdisjoint(a.accepting)


def enumerate_accepted(a: Nfa, max_len: int) -> frozenset[tuple[str, ...]]:
    """All accepted words of length at most ``max_len``."""
    out = _out_edges(a)
    found: set[tuple[str, ...]] = set()
    frontier = [((), _closure(out, {a.initial}))]
    while frontier:
        longer = []
        for word, states in frontier:
            if not states.isdisjoint(a.accepting):
                found.add(word)
            if len(word) < max_len:
                for sym in a.alphabet:
                    target = _step(out, states, sym)
                    if target:
                        longer.append((word + (sym,), target))
        frontier = longer
    return frozenset(found)


def equivalent(a: Nfa, b: Nfa) -> bool:
    """Language equality via emptiness of both difference directions, each
    built as a product with a complement, so that ``minimize`` (which
    ``difference`` runs) is not part of the check."""
    alphabet = tuple(dict.fromkeys(a.alphabet + b.alphabet))
    return all(
        is_empty(intersect(x, complement(y, alphabet))) for x, y in ((a, b), (b, a))
    )


def reference_product(a: Nfa, b: Nfa) -> Nfa:
    """Untrimmed ``L(a) ∩ L(b)`` by the plain product construction.

    Pairs of states are numbered as they are discovered, breadth-first from
    the initial pair, symbols in the order of the joint alphabet (``a``'s,
    then ``b``'s new ones), targets in increasing order. An epsilon edge is
    taken inside a step: the pair moves on a symbol from anywhere in its
    states' epsilon closures, and accepts if both closures hold an accepting
    state.
    """
    alphabet = tuple(dict.fromkeys(a.alphabet + b.alphabet))
    out_a, out_b = _out_edges(a), _out_edges(b)

    def step(out: list[list[tuple[str | None, int]]], q: int, sym: str) -> list[int]:
        return sorted({r for m in _closure(out, {q}) for x, r in out[m] if x == sym})

    start = (a.initial, b.initial)
    number = {start: 0}
    queue = deque([start])
    transitions = set()
    while queue:
        qa, qb = queue.popleft()
        for sym in alphabet:
            for ra in step(out_a, qa, sym):
                for rb in step(out_b, qb, sym):
                    if (ra, rb) not in number:
                        number[(ra, rb)] = len(number)
                        queue.append((ra, rb))
                    transitions.add((number[(qa, qb)], sym, number[(ra, rb)]))
    accepting = frozenset(
        i
        for (qa, qb), i in number.items()
        if not _closure(out_a, {qa}).isdisjoint(a.accepting)
        and not _closure(out_b, {qb}).isdisjoint(b.accepting)
    )
    return Nfa(len(number), alphabet, frozenset(transitions), 0, accepting)


def equivalent_states(a: Nfa) -> list[tuple[int, int | None]]:
    """Pairs of distinct states of the DFA ``a`` from which the same words are
    accepted; ``None`` stands for the dead state that a missing edge leads to.

    Table filling over all pairs: a pair is marked when one side accepts and
    the other does not, or when some symbol leads it to a marked pair, and
    every pair is rescanned until no mark is added.
    """
    delta = {(q, x): r for q, x, r in a.transitions}
    if None in {x for _, x, _ in a.transitions} or len(delta) < len(a.transitions):
        raise ValueError("not a DFA")
    pairs = list(combinations([*a.states, None], 2))
    marked = {(p, q) for p, q in pairs if (p in a.accepting) != (q in a.accepting)}
    changed = True
    while changed:
        changed = False
        for p, q in pairs:
            if (p, q) in marked:
                continue
            for x in a.alphabet:
                r, s = delta.get((p, x)), delta.get((q, x))
                if (r, s) in marked or (s, r) in marked:
                    marked.add((p, q))
                    changed = True
                    break
    return [pair for pair in pairs if pair not in marked]


def enumerate_words(g: Cfg, max_len: int) -> frozenset[tuple[str, ...]]:
    """Exactly the words of ``L(g)`` whose length is at most ``max_len``.

    Bottom-up fixpoint over the normal form; terminates because each
    nonterminal's word set is bounded by the finite set of short words.
    """
    if max_len < 0:
        raise GrammarError("max_len must be nonnegative")
    gn = normalize(g)
    words: dict[str, set[tuple[str, ...]]] = {v: set() for v in gn.variables}
    # a terminal derives its one-letter word, in a unit or a binary rule
    letters = {x: {(x,)} if max_len >= 1 else set() for x in gn.terminals}

    def derived(sym):
        return (letters if sym.terminal else words)[sym.name]

    changed = True
    while changed:
        changed = False
        for p in gn.productions:
            target = words[p.lhs]
            before = len(target)
            rhs = p.rhs
            if len(rhs) == 0:
                target.add(())
            elif len(rhs) == 1:
                target |= derived(rhs[0])
            else:
                # snapshot: rhs sets may alias the target (e.g. S -> S S)
                left = tuple(derived(rhs[0]))
                right = tuple(derived(rhs[1]))
                for u in left:
                    budget = max_len - len(u)
                    for v in right:
                        if len(v) <= budget:
                            target.add(u + v)
            if len(target) != before:
                changed = True
    return frozenset(words[gn.start])


def prestar_triples(gn: Cfg, a: Nfa) -> frozenset[tuple[int, str | None, int]]:
    """The pre* triples of a normal-form grammar over ``a`` by a naive fixpoint.

    (q, X, r) for X a nonterminal, a terminal of ``gn`` or ε (``None``): seeded
    with (q, A, q) for A -> ε and the automaton's ε and ``gn``-terminal edges,
    closed under A -> X, A -> XY and ε-triples composing on either side. Every
    round joins every pair of triples, so it is cubic and only for tests.
    """
    units = [(p.lhs, p.rhs[0].name) for p in gn.productions if len(p.rhs) == 1]
    pairs = [(p.lhs, p.rhs[0].name, p.rhs[1].name) for p in gn.productions if len(p.rhs) == 2]
    triples = {(q, p.lhs, q) for q in a.states for p in gn.productions if not p.rhs}
    triples |= {(q, x, r) for q, x, r in a.transitions if x is None or x in gn.terminals}
    while True:
        new = {(q, lhs, r) for q, x, r in triples for lhs, y in units if x == y}
        for q, x, m in triples:
            for m2, y, r in triples:
                if m2 != m:
                    continue
                if x is None or y is None:
                    new.add((q, y if x is None else x, r))
                new |= {(q, lhs, r) for lhs, b, c in pairs if (b, c) == (x, y)}
        if new <= triples:
            return frozenset(triples)
        triples |= new


_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<arrow>->)
      | (?P<punct>[{};|])
      | (?P<string>"[^"\n]*")
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)""",
    re.VERBOSE,
)


def reference_tokens(text: str) -> list[tuple[str, str, int, int]]:
    """The tokens of a grammar file as (kind, text, line, column), without
    whitespace and comments, ending with ``("eof", "", line, column)``.

    Matches one token at a time and keeps a running 1-based line and column
    (only ``\\n`` ends a line); a character no token starts with raises
    ``ParseError`` at its position.
    """
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append((kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens
