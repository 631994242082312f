"""Small brute-force reference constructions for the property-test suite.

The star contraction of a union-free regular expression is the finite
family of sub-languages obtained by weakening starred subterms: each
starred subterm may be restricted to any subset of the contractions of its
body. The full star-generalization family of a word enumerates every way of
wrapping nested repetition around its substrings. Both sets are compared at
bounded word length; nothing here is meant to scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable

from cflsep.grammar import GrammarError
from cflsep.nfa import Nfa, enumerate_accepted


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
    # memoized, since the oracle properties ask for the same expression's
    # words many times; equal languages share one frozenset, because tens of
    # thousands of expressions have only a few thousand languages
    lang = enumerate_accepted(regex_to_nfa(e), max_len)
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
