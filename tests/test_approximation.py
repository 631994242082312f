import hashlib
import random
import runpy

import pytest

import cflsep.approximation as approximation
from cflsep.approximation import (
    ApproximationError,
    _Builder,
    make_fa,
    nederhof,
    sigma_star,
    strongly_regular,
)
import cflsep.grammar as grammar_mod
from cflsep.grammar_io import parse_named
from cflsep.nfa import Nfa, _nfa, to_dot, trim

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
from support import (
    DEEP_CHAIN,
    FIXTURES,
    LONG_RULE,
    check_stored_as_rows,
    grammar,
    random_cfg,
    words_upto,
)

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


def _built(g):
    """make_fa's automaton before any trim, as its builder leaves it."""
    builder = _Builder(g)
    q0, qf = builder.fresh_state(), builder.fresh_state()
    builder.emit(q0, (grammar_mod.nt(g.start),), qf)
    return _nfa(builder.num_states, g.terminals, frozenset(builder.transitions), q0, frozenset({qf}))


def _unproductive(g):
    productive, grew = set(), True
    while grew:
        grew = False
        for p in g.productions:
            if p.lhs not in productive and all(s.terminal or s.name in productive for s in p.rhs):
                productive.add(p.lhs)
                grew = True
    return set(g.variables) - productive


def _dag(depth):
    rules = "".join(f"N{i} -> N{i + 1} N{i + 1}; " for i in range(depth))
    return grammar(f'grammar Dag {{ start N0; {rules}N{depth} -> "a" | "b"; }}')


def _no_trim(a):
    raise AssertionError("make_fa trimmed a grammar whose nonterminals are all productive")


def test_make_fa_of_a_productive_grammar_never_trims(monkeypatch):
    monkeypatch.setattr(approximation, "trim", _no_trim)
    grammars = [strongly_regular(g) for _, g in parse_named((FIXTURES / "c5c7.cfg").read_text())]
    for g in grammars + [_dag(12)]:
        assert not _unproductive(g)
        a = make_fa(g)
        assert a == _built(g)
    assert a.num_states == 2**12 + 1


def test_nederhof_of_a_dag_is_stored_as_rows():
    # the builder's automaton of Nᵢ → Nᵢ₊₁ Nᵢ₊₁ is an epsilon-free DFA
    for depth in range(9):
        g = _dag(depth)
        a = nederhof(g)
        assert a.num_states == 2**depth + 1
        check_stored_as_rows(a, _built(strongly_regular(g)).transitions)


def test_make_fa_stores_rows_only_for_epsilon_free_dfas():
    as_transitions = (
        'S -> "a" | ;',  # an epsilon edge
        'S -> "a" "b" | "a" "c";',  # two edges on "a" from one state
        'S -> "a" S | "b";',  # a right-linear block is entered by epsilon
    )
    for rules in as_transitions:
        a = make_fa(grammar(f"grammar G {{ start S; {rules} }}"))
        assert "transitions" in vars(a) and "_rows" not in vars(a), rules
    # the trim of an unproductive grammar's automaton is a DFA here
    g = grammar('grammar G { start S; S -> "b" | "a" A; A -> "c" A; }')
    a = make_fa(g)
    check_stored_as_rows(a, trim(_built(g)).transitions)
    assert a.transitions == frozenset({(0, "b", 1)})


def test_make_fa_is_the_trim_of_its_builder_on_random_grammars(monkeypatch):
    trims = []
    monkeypatch.setattr(approximation, "trim", lambda a: trims.append(a) or trim(a))
    rng = random.Random(1818)
    kinds = set()
    for _ in range(200):
        g = strongly_regular(random_cfg(rng))
        trims.clear()
        a = make_fa(g)
        assert a == trim(_built(g))
        unproductive = bool(_unproductive(g))
        assert len(trims) == unproductive
        if not unproductive:
            assert trim(a) is a
        kinds.add(unproductive)
    assert kinds == {False, True}


def test_make_fa_trims_unproductive_nonterminals():
    # an unproductive start: the one-state empty automaton
    g = grammar('grammar G { start S; S -> "a" S; }')
    assert make_fa(g) == Nfa(1, ("a",), frozenset(), 0, frozenset())
    # A shares S's recursive block but derives no word, since B derives none
    g = grammar('grammar G { start S; S -> "a" A | "b"; A -> B S; B -> "c" B; }')
    block = grammar_mod.sccs(g).index
    assert block["A"] == block["S"] and _unproductive(g) == {"A", "B"}
    raw, a = _built(g), make_fa(g)
    assert a == trim(raw) and a.num_states < raw.num_states
    assert enumerate_accepted(a, 3) == {("b",)}
    # U derives no word, but S does not reach it: no state is useless
    g = grammar('grammar G { start S; S -> "a" S | "b"; U -> "u" U; }')
    raw = _built(g)
    assert _unproductive(g) == {"U"} and trim(raw) is raw and make_fa(g) == raw


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


# sha256 of the to_dot of every grammar's Nederhof approximation, in file
# order, for each fixture and for the first seed-1 query of each benchmark
# grammar shape: --dump-approx files show these state numbers, so make_fa
# must number fresh states in this order
NEDERHOF_DIGESTS = {
    "anbn.cfg": "06996e9e1e74aa6872ee45ee1a849c2dd891f1f70b10bb0d2acac5fb8de63478",
    "c1.cfg": "e0e7df3232cbff8147482a341534f6c6b11ad1d770f71d52312b80e3585f0934",
    "c1c7.cfg": "d634be414b64bf525bc67512204a7adadac3756f2c6bc0099c1e69b3b01fb807",
    "c1c8.cfg": "2785bb863159ea78db1c7a3550cfec49c98ffc921719d2194fb4ab15bf607862",
    "c2.cfg": "79c2516c6b15f19100147bd5a78add7d0d04c1e9fba4458be8bec51affa37e12",
    "c2c3.cfg": "1e9451a946699d1ac1bf9722b9721b9646430b25ae36271fa72e8eb2e7b0968e",
    "c2c4.cfg": "5a08c4d08206e1fec689655f6ccc49f7b397f65ce74e1aaf19eb904c23457a76",
    "c3.cfg": "e092b2011f36e11a7dec9716644e8474214352b7d544e6a68f72c73651669e0d",
    "c3c4.cfg": "330707956044692fd8407eb124b8161b3b2bdc87fc69dde662b51079a6a39855",
    "c4.cfg": "b8f906db19efeea1a24fa0cb385d76536b89a79b8e0c60159bad6360739ad629",
    "c5.cfg": "9cf88f9a13b0d0c8f43c9895234bc43dbbc3e51f838759b45b540369b306e5ec",
    "c5c6.cfg": "48b9ddbc621f2dab23e216720bcf13fc19dc98c3c501b033319de6d8449096ed",
    "c5c7.cfg": "710dad12bd1fdd54bea30e14f667c5b4e3c640e07fe016b4bf0aef7ec6b2f04d",
    "c5c8.cfg": "efd3217e7749f21f16e8e0291d88552c6c405286929a50f70a6a4851af8c265b",
    "c6.cfg": "6fd5c669cf1715627e1884e0dff3409a33ff0bbf3f7206bbef193a62cb892790",
    "c6c7.cfg": "94d987e611b1c79ceb0771e53e4f0f82fb74183df9adbb1ac9c0d3439fad0a5f",
    "c6c8.cfg": "b342f9e5a57d4f8d6b5f98f44a7ebd216b6bdee4939fb006f1c8791f39ec576a",
    "c7.cfg": "91d66680cabb14d8e0b06192a370b6b2c2a779d885581854c83486177054f818",
    "c7c8.cfg": "7b71512f1acddd018844f97c06c968aa52779e24b500b3fa1abe6e5eaf0022fd",
    "c8.cfg": "5aa29063dbbbadd30785457c17251bbc4dfe65e1745ea1b57493fbe3f7e91171",
    "dag9": "8bf8cba78d02bf7fd232f3c753601701e46a26c0055120bb17fab01511e86a04",
    "g1g2.cfg": "48b9ddbc621f2dab23e216720bcf13fc19dc98c3c501b033319de6d8449096ed",
    "pal3-01": "8e5f4a92950cfac45a54db05e7203708f5f42f42d2bb63de28e42a8012766505",
    "pal3-20": "60bd0c97323f84253f739aa3e73cc9cdb21076e7a11e60c37eb4988bdb2bf838",
    "pal4-01": "09f88c32999f42666961a4afa0e8620d8be156fdf8f1244f4bd2ba2a34baee36",
    "pal4-32": "d4696f8983d464be8f0460c7c07fbfcb55581dad9243c4d884620cc6b2b44bd4",
    "palindrome.cfg": "237f327bc229363208d95d54cc8af78ce263072e72e1e3a61c26a622e88c40ac",
    "sharedmem.cfg": "30df86ba37b6405c9a4c084e0f0c3311b2ab593d4631f3fa7a5368636eb9a37a",
    "shm2": "13b32b74e4adc0444465e8ab033318a4d3dd1ffd84532f29467561f5850795ba",
    "shm3": "e90dfba32fcbb742f19be6a2bbec0a5f24d940c94f236238f906fd3409b33352",
    "shm4": "ce4885f678d3e76ce653f3bd3f76c4785fa73818865bb3afdd49f83e1e870b47",
    "shm5": "81e237f33c14d5419f48329b94bd8a49607ac2e804d465693e0607bfa76665bc",
}


def test_nederhof_state_numbering_is_pinned():
    texts = {path.name: path.read_text() for path in sorted(FIXTURES.glob("*.cfg"))}
    queries = runpy.run_path(str(FIXTURES.parent / "bench" / "workloads.py"))["queries"]
    for q in queries("big-automata", 1):
        shape = q.key.split("/")[1]  # e.g. big-automata/dag9/nederhof/greedy-eps
        if shape in NEDERHOF_DIGESTS:
            texts.setdefault(shape, q.text)
    digests = {
        name: hashlib.sha256(
            "".join(to_dot(nederhof(g)) for _, g in parse_named(text)).encode()
        ).hexdigest()
        for name, text in texts.items()
    }
    assert digests == NEDERHOF_DIGESTS
