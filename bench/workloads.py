"""Seeded query sets for the benchmark workloads.

Every query is a grammar file text plus a configuration. The library sees
only the text, so parsing goes through ``grammar_io`` exactly as for a user's
file. A seed changes the order of the queries and the terminal names.
Renaming keeps the relative string order of the terminals and their order
of first appearance, so a query's verdict, iteration count and work counts
do not depend on the seed; the expected table in ``expected.json`` is
therefore keyed by a seed-free query key.

Queries are bounded only by iteration caps, never by wall-clock time, so
verdicts cannot depend on machine speed.
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass

# Two-letter lowercase names cannot collide with the capitalized
# nonterminals of the generated grammars.
_NAME_POOL = tuple(a + b for a, b in itertools.product(string.ascii_lowercase, repeat=2))


@dataclass(frozen=True)
class Query:
    key: str            # seed-free identity, the key of the expected table
    text: str           # grammar file text handed to parse_named
    abstraction: str
    strategy: str
    cap: int            # max_refinements
    disjoint: bool = False  # the languages are disjoint by construction


def _renamer(rng: random.Random, names: list[str]) -> dict[str, str]:
    """Fresh names for ``names`` that keep their relative string order."""
    fresh = sorted(rng.sample(_NAME_POOL, len(names)))
    return dict(zip(sorted(names), fresh))


def _q(*symbols: str) -> str:
    return " ".join(f'"{s}"' for s in symbols)


# --------------------------------------------------------------------------
# long-witness: counting pairs whose refinement learns one word per round
# --------------------------------------------------------------------------


def _modk(a: str, b: str, k: int) -> str:
    # a^n b^n  vs  a^n b^(n+k)
    return (
        f"grammar Bal {{\n  start S;\n  S -> {_q(a)} S {_q(b)} | ;\n}}\n\n"
        f"grammar Skew {{\n  start S;\n  S -> {_q(a)} S {_q(b)} | T;\n"
        f"  T -> {_q(*[b] * k)};\n}}\n"
    )


def _shift(a: str, b: str, c: str, k: int) -> str:
    # a^(n+k) c b^n  vs  a^n c b^n
    return (
        f"grammar Shifted {{\n  start S;\n  S -> {_q(*[a] * k)} T;\n"
        f"  T -> {_q(a)} T {_q(b)} | {_q(c)};\n}}\n\n"
        f"grammar Marked {{\n  start T;\n  T -> {_q(a)} T {_q(b)} | {_q(c)};\n}}\n"
    )


# (family, k, abstraction, strategy, cap). The nederhof/greedy-eps rows are
# the saturation-heavy core: greedy-eps learns about one word per round here,
# so the witness grows a letter per round and each round's saturation costs
# more. The caps sweep the witness length and stop before the steep part of
# the growth (see README.md). The slowest tenth of the queries sit close
# together (0.3-0.6 s a query), so that query_s.p90 does not fall in a gap
# between two queries' times. The greedy-star rows are cheap and are the
# only ones that end Separable.
LONG_WITNESS = (
    *(("modk", 1, "nederhof", "greedy-eps", cap) for cap in (10, 15, 18, 20)),
    *(("modk", 2, "nederhof", "greedy-eps", cap) for cap in (6, 8, 9, 10)),
    *(("modk", 3, "nederhof", "greedy-eps", cap) for cap in (6, 8)),
    *(("shift", 1, "nederhof", "greedy-eps", cap) for cap in (10, 15, 17)),
    *(("shift", 2, "nederhof", "greedy-eps", cap) for cap in (6, 8)),
    ("shift", 3, "nederhof", "greedy-eps", 8),
    *(("modk", 1, "sigma-star", "greedy-eps", cap) for cap in (20, 25)),
    *(("modk", 2, "sigma-star", "greedy-eps", cap) for cap in (15, 17)),
    ("modk", 3, "sigma-star", "greedy-eps", 12),
    *(("shift", k, "sigma-star", "greedy-eps", 20) for k in (1, 2, 3)),
    *(
        (family, k, abstraction, "greedy-star", 15)
        for family in ("modk", "shift")
        for k in (1, 2, 3)
        for abstraction in ("nederhof", "sigma-star")
    ),
)


def long_witness(rng: random.Random) -> list[Query]:
    queries = []
    for family, k, abstraction, strategy, cap in LONG_WITNESS:
        names = _renamer(rng, ["a", "b", "c"])
        a, b, c = names["a"], names["b"], names["c"]
        text = _modk(a, b, k) if family == "modk" else _shift(a, b, c, k)
        key = f"long-witness/{family}{k}/{abstraction}/{strategy}/cap{cap}"
        queries.append(Query(key, text, abstraction, strategy, cap, disjoint=True))
    rng.shuffle(queries)
    return queries


# --------------------------------------------------------------------------
# big-automata: large approximations and wide joint products
# --------------------------------------------------------------------------


# (k, i, j, cap): marked palindromes over k letters against l_i^n c l_j^n.
# Each round subtracts a generalization from sigma-star, so the
# approximations and the joint product grow round by round.
BIG_PALINDROMES = (
    (3, 0, 1, 100), (3, 0, 1, 20), (3, 0, 1, 40), (3, 2, 0, 30),
    *((4, 0, 1, cap) for cap in (10, 20, 30, 40)), (4, 3, 2, 40),
)
# (V, abstraction, strategy, cap): 2V grammars, so the joint product is
# 2V-ary. Under nederhof, V = 3 is decided at round 0 by one 6-ary product.
BIG_SHARED_MEMORY = (
    *((v, "sigma-star", "greedy-star", cap) for v in (2, 3, 4, 5) for cap in (10, 20, 30)),
    *((v, "sigma-star", "greedy-eps", 20) for v in (2, 3, 4, 5)),
    (2, "nederhof", "greedy-eps", 100),
    (3, "nederhof", "greedy-eps", 100),
)
# DAG depths: the Nederhof approximation has 2^depth + 1 states.
BIG_DAGS = tuple(range(9, 16))


def _palindromes(names: dict[str, str], k: int, i: int, j: int) -> str:
    # k-letter marked palindromes  vs  l_i^n c l_j^n (n >= 1, i != j)
    letters = [names[f"l{m}"] for m in range(k)]
    c = names["c"]
    alts = " | ".join(f"{_q(x)} S {_q(x)}" for x in letters) + f" | {_q(c)}"
    li, lj = letters[i], letters[j]
    return (
        f"grammar Pal {{\n  start S;\n  S -> {alts};\n}}\n\n"
        f"grammar Cross {{\n  start S;\n  S -> {_q(li)} S {_q(lj)} | {_q(li, c, lj)};\n}}\n"
    )


def _shared_memory(names: dict[str, str], v: int) -> str:
    """V recursive threads over V Boolean globals, as in sharedmem.cfg.

    Thread t reads global t+1 (mod V) and writes global t, flipping the read
    value; its final check reads global t as 1. Between its own actions a
    thread lets every other thread's reads and writes interleave. Each
    global is a two-state grammar that tracks its value and ignores the
    other globals' actions.
    """
    var = [names[f"g{t}"] for t in range(v)]

    def r(t: int, bit: int) -> str:
        return f"r_{var[t]}_{bit}"

    def w(t: int, bit: int) -> str:
        return f"w_{var[t]}_{bit}"

    blocks = []
    for t in range(v):
        nxt = (t + 1) % v
        others = [
            act
            for u in range(v)
            if u != t
            for act in (r((u + 1) % v, 0), r((u + 1) % v, 1), w(u, 0), w(u, 1))
        ]
        sp = " | ".join(f"{_q(a)} Sp" for a in others) + " | "
        blocks.append(
            f"grammar Thread{t} {{\n  start N0;\n  N0 -> Asgn N1;\n  N1 -> N0 N2 | N2;\n"
            f"  N2 -> Asgn N3;\n  N3 -> Check;\n"
            f"  Asgn -> Sp {_q(r(nxt, 0), w(t, 1))} Sp | Sp {_q(r(nxt, 1), w(t, 0))} Sp;\n"
            f"  Check -> {_q(r(t, 1))};\n  Sp -> {sp};\n}}\n"
        )
    for t in range(v):
        foreign = [
            act
            for u in range(v)
            if u != t
            for act in (r(u, 0), r(u, 1), w(u, 0), w(u, 1))
        ]
        skip = " | ".join(f"{_q(a)} Skip" for a in foreign) + " | "
        blocks.append(
            f"grammar Global{t} {{\n  start False;\n"
            f"  False -> {_q(r(t, 0))} False | {_q(w(t, 0))} False | {_q(w(t, 1))} True"
            f" | Skip False | ;\n"
            f"  True -> {_q(r(t, 1))} True | {_q(w(t, 1))} True | {_q(w(t, 0))} False"
            f" | Skip True | ;\n"
            f"  Skip -> {skip};\n}}\n"
        )
    return "\n".join(blocks)


def _dag(names: dict[str, str], depth: int) -> str:
    # N_i -> N_(i+1) N_(i+1): words of length exactly 2^depth, against
    # odd-length words; Nederhof re-instantiates each level, 2^depth states
    a, b = names["a"], names["b"]
    rules = "".join(f"  N{i} -> N{i + 1} N{i + 1};\n" for i in range(depth))
    return (
        f"grammar Dag {{\n  start N0;\n{rules}  N{depth} -> {_q(a)} | {_q(b)};\n}}\n\n"
        f"grammar Odd {{\n  start O;\n  O -> {_q(a)} E | {_q(b)} E;\n"
        f"  E -> {_q(a)} O | {_q(b)} O | ;\n}}\n"
    )


def big_automata(rng: random.Random) -> list[Query]:
    queries = []
    for k, i, j, cap in BIG_PALINDROMES:
        names = _renamer(rng, [f"l{m}" for m in range(k)] + ["c"])
        key = f"big-automata/pal{k}-{i}{j}/sigma-star/greedy-star/cap{cap}"
        text = _palindromes(names, k, i, j)
        queries.append(Query(key, text, "sigma-star", "greedy-star", cap, disjoint=True))
    for v, abstraction, strategy, cap in BIG_SHARED_MEMORY:
        names = _renamer(rng, [f"g{t}" for t in range(v)])
        key = f"big-automata/shm{v}/{abstraction}/{strategy}/cap{cap}"
        queries.append(Query(key, _shared_memory(names, v), abstraction, strategy, cap))
    for depth in BIG_DAGS:
        names = _renamer(rng, ["a", "b"])
        key = f"big-automata/dag{depth}/nederhof/greedy-eps"
        queries.append(Query(key, _dag(names, depth), "nederhof", "greedy-eps", 100, disjoint=True))
    rng.shuffle(queries)
    return queries


WORKLOADS = {
    "long-witness": long_witness,
    "big-automata": big_automata,
}


def queries(workload: str, seed: int) -> list[Query]:
    return WORKLOADS[workload](random.Random(seed))
