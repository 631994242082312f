import random

import pytest

from cflsep.approximation import (
    ApproximationError,
    make_fa,
    nederhof,
    sigma_star,
    strongly_regular,
)
import cflsep.grammar as grammar_mod

from oracles import (
    accepts,
    bounded_language,
    cat,
    enumerate_accepted,
    enumerate_words,
    equivalent,
    lit,
    regex_to_nfa,
    star,
)
from support import DEEP_CHAIN, LONG_RULE, grammar, random_cfg, words_upto

ANCBN = grammar('grammar G { start A; A -> "a" B "b" | "c"; B -> A; }')
A_STAR_C_B_STAR = regex_to_nfa(cat(star(lit("a")), lit("c"), star(lit("b"))))


def test_sigma_star_two_letters():
    a = sigma_star(("a", "b"))
    assert a.num_states == 1
    assert len(a.transitions) == 2
    assert accepts(a, ())
    assert accepts(a, ("a", "b", "b", "a"))


def test_sigma_star_empty_alphabet():
    a = sigma_star(())
    assert enumerate_accepted(a, 3) == frozenset({()})


def test_strongly_regular_breaks_matched_recursion():
    reg = strongly_regular(ANCBN)
    # the rewritten grammar is a regular superset: exactly a*cb*
    words = enumerate_words(reg, 6)
    assert words == bounded_language(cat(star(lit("a")), lit("c"), star(lit("b"))), 6)


def test_strongly_regular_keeps_right_linear_grammars():
    g = grammar('grammar G { start S; S -> "a" S | "b"; }')
    reg = strongly_regular(g)
    assert set(reg.productions) == set(g.productions)


def test_strongly_regular_is_sound_for_c3():
    c3 = grammar('grammar C3 { start S; S -> "a" S "a" | "a" "c" "a"; }')
    reg = strongly_regular(c3)
    covered = enumerate_words(reg, 7)
    for w in enumerate_words(c3, 7):
        assert w in covered


def test_strongly_regular_bounded_idempotent():
    rng = random.Random(11)
    for _ in range(25):
        g = random_cfg(rng)
        once = strongly_regular(g)
        twice = strongly_regular(once)
        assert enumerate_words(once, 6) == enumerate_words(twice, 6)


def test_make_fa_exact_on_matched_pair_grammar():
    reg = strongly_regular(ANCBN)
    auto = make_fa(reg)
    assert equivalent(auto, A_STAR_C_B_STAR)


def test_make_fa_single_terminal():
    g = grammar('grammar G { start S; S -> "a"; }')
    auto = make_fa(g)
    assert auto.num_states == 2
    assert enumerate_accepted(auto, 3) == frozenset({("a",)})


def test_make_fa_self_loop():
    g = grammar('grammar G { start A; A -> "a" A | ; }')
    auto = make_fa(g)
    assert enumerate_accepted(auto, 4) == frozenset(
        {(), ("a",), ("a",) * 2, ("a",) * 3, ("a",) * 4}
    )


def test_make_fa_rejects_non_strongly_regular():
    pal = grammar('grammar P { start A; A -> "a" A "a" | ; }')
    with pytest.raises(ApproximationError):
        make_fa(pal)
    # only the blocks that the start symbol reaches are compiled
    unreachable = grammar('grammar Q { start S; S -> "b"; A -> "a" A "a" | ; }')
    assert enumerate_accepted(make_fa(unreachable), 3) == frozenset({("b",)})


def test_make_fa_exact_on_right_linear():
    g = grammar('grammar G { start S; S -> "a" S | "b" T | ; T -> "b" T | "a"; }')
    auto = make_fa(g)
    assert enumerate_accepted(auto, 7) == enumerate_words(g, 7)


def test_make_fa_exact_on_random_right_linear():
    rng = random.Random(314)
    for _ in range(25):
        names = ("S", "A")[: rng.randint(1, 2)]
        prods = []
        for v in names:
            for _ in range(rng.randint(1, 3)):
                body = tuple(
                    grammar_mod.t(rng.choice(("a", "b")))
                    for _ in range(rng.randint(0, 2))
                )
                if rng.random() < 0.5:
                    body = body + (grammar_mod.nt(rng.choice(names)),)
                prods.append(grammar_mod.Production(v, body))
        g = grammar_mod.Cfg(names, ("a", "b"), tuple(prods), "S")
        auto = make_fa(g)
        assert enumerate_accepted(auto, 7) == enumerate_words(g, 7)


def test_nederhof_matched_pairs():
    assert equivalent(nederhof(ANCBN), A_STAR_C_B_STAR)


def test_nederhof_already_regular():
    g = grammar('grammar G { start S; S -> "a" S | "b"; }')
    expected = regex_to_nfa(cat(star(lit("a")), lit("b")))
    assert equivalent(nederhof(g), expected)


def test_nederhof_sound_for_palindromes():
    c1 = grammar('grammar C1 { start S; S -> "a" S "a" | "b" S "b" | ; }')
    approx = nederhof(c1)
    for w in words_upto(("a", "b"), 6):
        if w == tuple(reversed(w)) and len(w) % 2 == 0:
            assert accepts(approx, w)


def test_nederhof_sound_on_random_grammars():
    rng = random.Random(1234)
    for _ in range(40):
        g = random_cfg(rng)
        approx = nederhof(g)
        full = sigma_star(g.terminals)
        for w in enumerate_words(g, 7):
            assert accepts(approx, w)
            assert accepts(full, w)


@pytest.mark.parametrize(
    "text, word",
    [(LONG_RULE, ("a",) * 1200), (DEEP_CHAIN, ("a",) * 1200 + ("b",))],
    ids=["long-rule", "deep-chain"],
)
def test_nederhof_long_and_deep_rules_do_not_recurse(text, word):
    a = nederhof(grammar(text))
    assert accepts(a, word)
    assert not accepts(a, word[1:])
