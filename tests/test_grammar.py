import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cflsep.grammar import (
    Cfg,
    GrammarError,
    Production,
    is_normal_form,
    normalize,
    nt,
    sccs,
)
from cflsep.prestar import in_language

from oracles import enumerate_words
from support import AIBI1, PALINDROME, grammar, random_cfg, words_upto

ANCBN = grammar('grammar G { start A; A -> "a" B "b" | "c"; B -> A; }')


def is_palindrome(w):
    return w == tuple(reversed(w))


# --- construction -----------------------------------------------------------


def test_cfg_validation():
    with pytest.raises(GrammarError):
        Cfg(("S",), ("a",), (), "T")  # start not declared
    with pytest.raises(GrammarError):
        Cfg(("S",), ("S",), (), "S")  # namespaces overlap
    with pytest.raises(GrammarError):
        Cfg(("S",), ("a",), (Production("S", (nt("X"),)),), "S")


# --- normalize --------------------------------------------------------------


def test_normalize_palindrome_shape_and_language():
    gn = normalize(PALINDROME)
    assert is_normal_form(gn)
    expected = {w for w in words_upto(("a", "b"), 6) if is_palindrome(w)}
    assert enumerate_words(gn, 6) == frozenset(expected)


def test_copied_grammar_hashes_like_a_fresh_equal_one():
    # the hash is cached on first use; a copy or an unpickled value must not
    # carry it over, since another process may hash with another seed
    g = normalize(ANCBN)
    fresh = normalize(grammar('grammar G { start A; A -> "a" B "b" | "c"; B -> A; }'))
    hash(g)
    g.__dict__["_hash"] = hash(fresh) + 1  # as if hashed under another seed
    for twin in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert twin == fresh and hash(twin) == hash(fresh)
        assert len({twin, fresh}) == 1


def test_normalize_is_identity_on_normal_grammars():
    g = grammar('grammar G { start S; S -> A B | "a" | B | ; A -> "a"; B -> "b"; }')
    assert is_normal_form(g)
    assert normalize(g) is g


def test_normalize_three_symbol_rhs():
    g = grammar('grammar G { start S; S -> "a" "b" "c"; }')
    gn = normalize(g)
    assert is_normal_form(gn)
    assert enumerate_words(gn, 6) == frozenset({("a", "b", "c")})


def test_normalize_grows_linearly():
    # one helper per symbol beyond the second in each long right-hand side,
    # and no other variable: terminals get no wrappers
    rng = random.Random(78)
    for g in [PALINDROME, ANCBN] + [random_cfg(rng) for _ in range(40)]:
        gn = normalize(g)
        helpers = sum(max(len(p.rhs) - 2, 0) for p in g.productions)
        assert gn.variables[: len(g.variables)] == g.variables
        assert len(gn.variables) == len(g.variables) + helpers
        assert len(gn.productions) == len(g.productions) + helpers
        assert gn.terminals == g.terminals


def test_binary_rules_read_terminals():
    g = grammar('grammar G { start S; S -> "a" S | "a" "b" | "c" | ; }')
    assert is_normal_form(g)
    assert normalize(g) is g
    assert not is_normal_form(grammar('grammar G { start S; S -> S S S; }'))


# --- sccs -------------------------------------------------------------------


def test_sccs_mutually_recursive_pair():
    part = sccs(ANCBN)
    assert part.blocks == (("A", "B"),)
    assert part.index == {"A": 0, "B": 0}


def test_sccs_non_recursive():
    g = grammar('grammar G { start S; S -> "a"; }')
    assert sccs(g).blocks == (("S",),)


def test_sccs_self_recursive_singleton():
    g = grammar('grammar C2 { start S; S -> "a" S "a" | "b" S "b" | "c"; }')
    assert sccs(g).blocks == (("S",),)


def test_sccs_partition_properties():
    rng = random.Random(7)
    for _ in range(50):
        g = random_cfg(rng)
        part = sccs(g)
        flat = [v for block in part.blocks for v in block]
        assert sorted(flat) == sorted(g.variables)
        assert len(set(flat)) == len(flat)
        for v in g.variables:
            assert v in part.blocks[part.index[v]]


# --- membership -------------------------------------------------------------


def test_member_palindrome():
    assert in_language(PALINDROME, ("a", "b", "b", "a"))
    assert not in_language(PALINDROME, ("a", "b"))


def test_member_witness_outside():
    assert not in_language(AIBI1, ("a", "a", "b"))
    assert in_language(AIBI1, ("a", "a", "b", "b", "b"))


def test_member_empty_word():
    g = grammar('grammar G { start S; S -> ; }')
    assert in_language(g, ())
    assert not in_language(AIBI1, ())
    nullable = grammar('grammar G { start S; S -> A B; A -> ; B -> "b" | ; }')
    assert in_language(nullable, ())


def test_foreign_symbols_are_outside_the_language():
    assert not in_language(PALINDROME, ("a", "z"))
    assert not in_language(PALINDROME, ("A",))  # spelled like its start symbol


# --- enumerate_words --------------------------------------------------------


def test_enumerate_anbn_marked():
    g = grammar('grammar G { start S; S -> "a" S "b" | "a" "c" "b"; }')
    assert enumerate_words(g, 5) == frozenset(
        {("a", "c", "b"), ("a", "a", "c", "b", "b")}
    )


def test_enumerate_nonterminating_grammar():
    g = grammar('grammar G { start S; S -> "a" S; }')
    assert enumerate_words(g, 5) == frozenset()


def test_enumerate_palindrome_short():
    assert enumerate_words(PALINDROME, 2) == frozenset(
        {(), ("a",), ("b",), ("a", "a"), ("b", "b")}
    )


def test_enumerate_negative_length():
    with pytest.raises(GrammarError):
        enumerate_words(PALINDROME, -1)


# --- randomized properties --------------------------------------------------


@st.composite
def small_cfgs(draw):
    seed = draw(st.integers(min_value=0, max_value=10**9))
    return random_cfg(random.Random(seed))


@given(small_cfgs())
@settings(max_examples=120, deadline=None)
def test_normalize_preserves_language(g):
    assert enumerate_words(g, 7) == enumerate_words(normalize(g), 7)


@given(small_cfgs())
@settings(max_examples=50, deadline=None)
def test_in_language_agrees_with_enumeration(g):
    words = enumerate_words(g, 7)
    for w in words_upto(g.terminals, 7):
        assert in_language(g, w) == (w in words)
