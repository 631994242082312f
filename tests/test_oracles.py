import random

import pytest

from cflsep.grammar import GrammarError
from oracles import (
    EPS,
    alt,
    bounded_language,
    cat,
    contraction_matches_generalization,
    lit,
    star,
    star_contractions,
    star_generalizations,
)

AB_STAR_C_STAR = cat(lit("a"), star(lit("b")), star(lit("c")))


def random_union_free(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        return lit(rng.choice(("a", "b"))) if rng.random() < 0.9 else EPS
    if rng.random() < 0.55:
        return cat(random_union_free(rng, depth - 1), random_union_free(rng, depth - 1))
    return star(random_union_free(rng, depth - 1))


def test_contraction_of_concatenation():
    got = {repr(e) for e in star_contractions(AB_STAR_C_STAR)}
    assert got == {"a", "ab*", "ac*", "ab*c*"}


def test_contraction_of_literal():
    assert star_contractions(lit("a")) == [lit("a")]


def test_contraction_of_starred_concatenation():
    results = star_contractions(star(AB_STAR_C_STAR))
    languages = {bounded_language(e, 6) for e in results}
    assert len(languages) == 6
    expected_members = [
        EPS,
        star(lit("a")),
        star(cat(lit("a"), star(lit("b")))),
        star(cat(lit("a"), star(lit("c")))),
        star(alt(cat(lit("a"), star(lit("b"))), cat(lit("a"), star(lit("c"))))),
        star(AB_STAR_C_STAR),
    ]
    assert {bounded_language(e, 6) for e in expected_members} == languages


def test_contraction_rejects_union():
    with pytest.raises(GrammarError):
        star_contractions(alt(lit("a"), lit("b")))


def test_generalizations_of_empty_word():
    assert star_generalizations(()) == [EPS]


def test_generalizations_of_single_symbol():
    got = {repr(e) for e in star_generalizations(("x",))}
    assert got == {"x", "x*"}


def test_generalizations_of_ab_include_expected_shapes():
    got = {repr(e) for e in star_generalizations(("a", "b"))}
    assert {"ab", "(ab)*", "a*b", "ab*", "a*b*", "(a*b)*"} <= got


def test_generalizations_respect_bound():
    with pytest.raises(GrammarError):
        star_generalizations(("a",) * 7)


def test_generalizations_accept_their_word():
    rng = random.Random(12)
    for _ in range(15):
        w = tuple(rng.choice(("a", "b")) for _ in range(rng.randint(0, 3)))
        for e in star_generalizations(w):
            assert w in bounded_language(e, len(w))


def test_trivial_generalization_is_minimum():
    w = ("a", "b")
    langs = [bounded_language(e, 4) for e in star_generalizations(w)]
    assert frozenset({w}) in langs
    for lang in langs:
        assert w in lang


def test_reconstruct_simple():
    assert contraction_matches_generalization(star(lit("a")), ("a", "a"))


def test_reconstruct_nested():
    assert contraction_matches_generalization(star(AB_STAR_C_STAR), ("a", "b", "c"))


def test_reconstruct_precondition():
    with pytest.raises(GrammarError):
        contraction_matches_generalization(lit("a"), ("b",))


def test_contraction_properties_random():
    rng = random.Random(5150)
    for _ in range(60):
        e = random_union_free(rng, 3)
        members = star_contractions(e)
        whole = bounded_language(e, 6)
        assert members  # finite and nonempty
        covered = frozenset()
        for m in members:
            lang = bounded_language(m, 6)
            assert lang <= whole
            covered |= lang
        assert covered == whole


def test_reconstruct_random_runs():
    rng = random.Random(31337)
    checked = 0
    while checked < 500:
        e = random_union_free(rng, 3)
        words = sorted(w for w in bounded_language(e, 5) if len(w) <= 5)
        if not words:
            continue
        w = rng.choice(words)
        assert contraction_matches_generalization(e, w)
        checked += 1
