import functools
import random
import time

import pytest

import cflsep.engine as engine
from cflsep.engine import (
    Config,
    Overlap,
    Separable,
    Unknown,
    _joint_witness,
    check_disjoint,
    classify_witness,
)
from cflsep.grammar import GrammarError
from cflsep.nfa import difference, is_empty, minimize
from cflsep.prestar import in_language
from cflsep.refinement import max_star_generalize

from oracles import accepts, enumerate_words, equivalent_states
from support import AIBI1, PALINDROME, grammar, load_fixture, random_cfg

C3 = grammar('grammar C3 { start S; S -> "a" S "a" | "a" "c" "a"; }')
C4 = grammar('grammar C4 { start S; S -> "a" S "b" | "a" "c" "b"; }')
REG_AB = grammar('grammar R { start S; S -> "a" S | "b"; }')  # a*b


def test_config_validation():
    with pytest.raises(ValueError):
        Config(abstraction="something")
    with pytest.raises(ValueError):
        Config(strategy="bogus")
    with pytest.raises(ValueError):
        Config(max_refinements=0)


def test_classify_witness():
    assert classify_witness(("a", "a", "b"), [AIBI1]) == [False]
    assert classify_witness(("a", "b", "b", "a"), [PALINDROME]) == [True]
    assert classify_witness((), [C3, C4]) == [False, False]


def test_same_grammar_overlaps_immediately():
    verdict = check_disjoint([REG_AB, REG_AB])
    assert isinstance(verdict, Overlap)
    assert verdict.iterations == 0
    assert in_language(REG_AB, verdict.witness)


def test_needs_at_least_two_grammars():
    with pytest.raises(GrammarError):
        check_disjoint([REG_AB])


def test_c2_c3_overlap_validated():
    c2 = grammar('grammar C2 { start S; S -> "a" S "a" | "b" S "b" | "c"; }')
    verdict = check_disjoint([c2, C3], Config(strategy="greedy-star"))
    assert isinstance(verdict, Overlap)
    assert verdict.witness == ("a", "c", "a")
    assert all(classify_witness(verdict.witness, [c2, C3]))


def test_c2_c4_separable_all_strategies():
    c2 = grammar('grammar C2 { start S; S -> "a" S "a" | "b" S "b" | "c"; }')
    for strategy in ("greedy-star", "greedy-eps", "max-star", "max-eps"):
        verdict = check_disjoint([c2, C4], Config(strategy=strategy))
        assert isinstance(verdict, Separable), strategy
        assert _joint_witness(verdict.approximations, ("a", "b", "c")) is None


def test_separable_verdict_carries_sound_approximations():
    c2 = grammar('grammar C2 { start S; S -> "a" S "a" | "b" S "b" | "c"; }')
    verdict = check_disjoint([c2, C4], Config(strategy="greedy-star"))
    assert isinstance(verdict, Separable)
    for g, approx in zip([c2, C4], verdict.approximations):
        for w in enumerate_words(g, 7):
            assert accepts(approx, w)


def test_separable_approximations_are_minimal_dfas():
    # sigma-star starts from a DFA and every round subtracts by `difference`,
    # so each approximation is the trimmed minimal DFA of its language
    verdict = check_disjoint(load_fixture("c3c4.cfg"), Config("sigma-star", "greedy-eps"))
    assert isinstance(verdict, Separable) and verdict.iterations >= 1
    for approx in verdict.approximations:
        assert minimize(approx) == approx
        assert equivalent_states(approx) == []


def test_iteration_cap_yields_unknown():
    anbn = grammar('grammar A { start S; S -> "a" S "b" | ; }')
    gs = [anbn, grammar('grammar B { start S; S -> "b" S "a" | ; }')]
    verdict = check_disjoint(
        gs, Config(abstraction="sigma-star", strategy="greedy-star", max_refinements=1)
    )
    assert isinstance(verdict, (Unknown, Overlap))
    if isinstance(verdict, Unknown):
        assert verdict.reason == "iterations"


def test_budget_exhaustion_yields_unknown(monkeypatch):
    c2 = grammar('grammar C2 { start S; S -> "a" S "a" | "b" S "b" | "c"; }')
    monkeypatch.setattr(
        engine, "max_star_generalize", functools.partial(max_star_generalize, budget=2)
    )
    verdict = check_disjoint([c2, C4], Config(abstraction="sigma-star", strategy="max-star"))
    assert isinstance(verdict, Unknown)
    assert verdict.reason == "budget"


def test_should_stop_timeout():
    c2 = grammar('grammar C2 { start S; S -> "a" S "a" | "b" S "b" | "c"; }')
    verdict = check_disjoint([c2, C4], should_stop=lambda: "timeout")
    assert verdict == Unknown("timeout", 0)


def test_observer_sees_monotone_tightening():
    g1, g2 = load_fixture("g1g2.cfg")
    history = []
    verdict = check_disjoint(
        [g1, g2],
        Config(abstraction="sigma-star", strategy="greedy-eps", max_refinements=50),
        observer=lambda it, approxs: history.append(tuple(approxs)),
    )
    assert isinstance(verdict, Separable)
    assert len(history) == verdict.iterations + 1
    sample_words = sorted(enumerate_words(g1, 6)) + sorted(enumerate_words(g2, 6))
    for earlier, later in zip(history, history[1:]):
        shrank = False
        for before, after in zip(earlier, later):
            # refined approximations only ever lose words
            assert is_empty(difference(after, before))
            if not is_empty(difference(before, after)):
                shrank = True
        assert shrank
    for w in sorted(enumerate_words(g1, 6)):
        assert accepts(history[-1][0], w)
    for w in sorted(enumerate_words(g2, 6)):
        assert accepts(history[-1][1], w)


def test_refined_approximations_reject_their_witnesses(monkeypatch):
    g1, g2 = load_fixture("g1g2.cfg")
    witnesses = []
    original = classify_witness

    def record(w, grammars):
        witnesses.append(tuple(w))
        return original(w, grammars)

    import cflsep.engine as engine

    monkeypatch.setattr(engine, "classify_witness", record)
    verdict = check_disjoint(
        [g1, g2],
        Config(abstraction="sigma-star", strategy="greedy-eps", max_refinements=50),
    )
    assert isinstance(verdict, Separable)
    # witnesses never repeat, and each one is gone from the approximations
    # of the grammars that excluded it
    assert len(set(witnesses)) == len(witnesses)
    for w in witnesses:
        for g, approx in zip([g1, g2], verdict.approximations):
            if not in_language(g, w):
                assert not accepts(approx, w)


def test_completeness_fixtures_terminate_with_max_eps():
    c2 = grammar('grammar C2 { start S; S -> "a" S "a" | "b" S "b" | "c"; }')
    cases = [
        ([c2, C4], "nederhof"),
        ([C3, C4], "nederhof"),
        (load_fixture("c5c6.cfg"), "nederhof"),
        (load_fixture("g1g2.cfg"), "sigma-star"),
    ]
    for grammars, abstraction in cases:
        start = time.monotonic()
        verdict = check_disjoint(
            grammars,
            Config(abstraction=abstraction, strategy="max-eps", max_refinements=60),
        )
        assert isinstance(verdict, Separable)
        assert time.monotonic() - start < 60


def test_witness_with_foreign_symbol_classifies_false():
    # with the coarsest abstraction the witness ranges over the union
    # alphabet, which can include symbols a grammar never uses
    c2 = grammar('grammar C2 { start S; S -> "a" S "a" | "b" S "b" | "c"; }')
    verdict = check_disjoint(
        [c2, C3], Config(abstraction="sigma-star", strategy="greedy-star", max_refinements=60)
    )
    assert isinstance(verdict, Overlap)
    assert verdict.witness == ("a", "c", "a")
    assert classify_witness(("b",), [C3]) == [False]


def test_empty_language_is_separable_from_anything():
    hungry = grammar('grammar E { start S; S -> "a" S; }')  # no finite word
    verdict = check_disjoint([hungry, REG_AB])
    assert isinstance(verdict, Separable)
    assert verdict.iterations == 0


def test_epsilon_only_grammars_overlap():
    e1 = grammar('grammar E1 { start S; S -> ; }')
    e2 = grammar('grammar E2 { start S; S -> ; }')
    verdict = check_disjoint([e1, e2])
    assert verdict == Overlap(witness=(), iterations=0)


def test_unused_terminals_are_harmless():
    g1 = grammar('grammar U1 { start S; S -> "a" | "c" X; X -> "c" X; }')
    g2 = grammar('grammar U2 { start S; S -> "b"; }')
    verdict = check_disjoint([g1, g2])
    assert isinstance(verdict, Separable)


def test_random_pairs_have_valid_verdicts():
    rng = random.Random(2024)
    for _ in range(12):
        g1, g2 = random_cfg(rng), random_cfg(rng)
        verdict = check_disjoint(
            [g1, g2],
            Config(abstraction="nederhof", strategy="greedy-eps", max_refinements=15),
        )
        if isinstance(verdict, Overlap):
            assert in_language(g1, verdict.witness) and in_language(g2, verdict.witness)
        elif isinstance(verdict, Separable):
            shared = tuple(dict.fromkeys(g1.terminals + g2.terminals))
            assert _joint_witness(verdict.approximations, shared) is None
            common = enumerate_words(g1, 6) & enumerate_words(g2, 6)
            assert not common
