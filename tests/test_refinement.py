import functools
import importlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cflsep.engine as engine
import cflsep.refinement as refinement
from cflsep.engine import Config
from cflsep.grammar import GrammarError
from cflsep.nfa import Nfa, difference, is_empty, union, word_automaton
from cflsep.prestar import PrestarSession, in_language, intersects
from cflsep.refinement import (
    BudgetExceededError,
    StarGeneralization,
    _crosses,
    eps_generalize,
    gen_language,
    max_eps_generalize,
    max_star_generalize,
    star_generalize,
)

from oracles import accepts, cat, enumerate_accepted, equivalent, lit, regex_to_nfa, star
from support import (
    AIBI1,
    FIXTURES,
    dfa_grammar,
    eps_edges_for_ranges,
    grammar,
    hand_nfa,
    load_fixture,
    random_cfg,
    saturation_state,
    words_upto,
)

AAB = ("a", "a", "b")
GEN_AAB_RANGES = frozenset({(0, 1), (1, 3), (0, 3)})
A_STAR_B_STAR = hand_nfa(
    2, ("a", "b"), {(0, "a", 0), (0, "b", 1), (1, "b", 1)}, 0, {0, 1}
)

# a*b | ab* over {a, b}: total DFA, used to constrain generalizations of "ab"
_AB_DELTA = {
    (0, "a"): 1, (0, "b"): 2,
    (1, "a"): 3, (1, "b"): 4,
    (2, "a"): 7, (2, "b"): 7,
    (3, "a"): 3, (3, "b"): 5,
    (4, "a"): 7, (4, "b"): 6,
    (5, "a"): 7, (5, "b"): 7,
    (6, "a"): 7, (6, "b"): 6,
    (7, "a"): 7, (7, "b"): 7,
}
_AB_ACCEPT = {1, 2, 4, 5, 6}
NOT_ASTARB_OR_ABSTAR = dfa_grammar(
    _AB_DELTA, {q for q in range(8) if q not in _AB_ACCEPT}, 8, ("a", "b")
)


def in_a_star_b_or_a_b_star(w):
    s = "".join(w)
    return (
        s.endswith("b") and set(s[:-1]) <= {"a"}
    ) or (s.startswith("a") and set(s[1:]) <= {"b"})


# --- gen_language ------------------------------------------------------------


def test_gen_language_running_example():
    gen = gen_language(StarGeneralization(AAB, GEN_AAB_RANGES))
    expected = regex_to_nfa(star(cat(star(lit("a")), star(cat(lit("a"), lit("b"))))))
    assert equivalent(gen, expected)


def test_gen_language_no_ranges():
    gen = gen_language(StarGeneralization(AAB, frozenset()))
    assert enumerate_accepted(gen, 5) == frozenset({AAB})


def test_gen_language_single_prefix_star():
    gen = gen_language(StarGeneralization(AAB, frozenset({(0, 1)})))
    expected = regex_to_nfa(cat(star(lit("a")), lit("a"), lit("b")))
    assert equivalent(gen, expected)


def test_gen_language_rejects_bad_ranges():
    with pytest.raises(GrammarError):
        StarGeneralization(AAB, frozenset({(2, 1)}))
    with pytest.raises(GrammarError):
        StarGeneralization(AAB, frozenset({(0, 4)}))
    with pytest.raises(GrammarError):
        StarGeneralization(("a", "b", "a", "b"), frozenset({(0, 2), (1, 3)}))


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=8))
@settings(max_examples=300, deadline=None)
def test_star_generalization_rejects_exactly_the_crossing_pairs(pairs):
    # the one-sweep check agrees with the pairwise definition; ranges that
    # touch or share a start or an end stay legal
    ranges = frozenset((min(i, j), max(i, j)) for i, j in pairs if i != j)
    crossing = any(_crosses(r1, r2) for r1, r2 in itertools.combinations(ranges, 2))
    try:
        StarGeneralization(("a",) * 8, ranges)
    except GrammarError:
        assert crossing
    else:
        assert not crossing


def test_star_generalization_checks_a_long_nest_in_one_sweep():
    # 3,000 nested ranges and 3,000 touching ones (4.5M pairs each); the
    # error names the innermost open range and the one that crosses it
    n = 6000
    StarGeneralization(("a",) * n, frozenset((k, n - k) for k in range(n // 2)))
    StarGeneralization(("a",) * n, frozenset((k, k + 2) for k in range(0, n - 1, 2)))
    with pytest.raises(GrammarError, match=r"\(2998, 3002\) and \(2999, 3003\) cross"):
        StarGeneralization(("a",) * n, frozenset((k, n - k) for k in range(n // 2)) | {(2999, 3003)})


def test_gen_language_deep_nests_have_no_recursion_limit():
    # far deeper than Python's recursion limit: {(0,k)} on a^1200 (a* with
    # n^2/2 follow edges) and 3,000 stars centred on a^6000 (linear in size)
    n = 1200
    gen = gen_language(StarGeneralization(("a",) * n, frozenset((0, k) for k in range(1, n + 1))))
    assert gen.num_states == n + 2
    assert accepts(gen, ()) and accepts(gen, ("a", "a", "a"))
    n = 6000
    gen = gen_language(StarGeneralization(("a",) * n, frozenset((k, n - k) for k in range(n // 2))))
    assert [m for m in range(12) if accepts(gen, ("a",) * m)] == [0, 2, 4, 6, 8, 10]


def _star_regex(word, ranges, lo, hi):
    """The expression of ``word[lo:hi]`` with its ranges starred, (lo, hi)
    itself not included; recursive, for short words only."""
    inner = [r for r in ranges if lo <= r[0] and r[1] <= hi and r != (lo, hi)]
    outermost = {r[0]: r for r in inner if not any(o != r and o[0] <= r[0] and r[1] <= o[1] for o in inner)}
    parts, pos = [], lo
    while pos < hi:
        if pos in outermost:
            i, j = outermost[pos]
            parts.append(star(_star_regex(word, ranges, i, j)))
            pos = j
        else:
            parts.append(lit(word[pos]))
            pos += 1
    return cat(*parts)


@st.composite
def laminar_families(draw):
    """A word of up to 6 letters and a laminar list of its ranges."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**9)))
    word = tuple(rng.choice("ab") for _ in range(rng.randint(0, 6)))
    spans = refinement._star_candidates(len(word))
    rng.shuffle(spans)
    ranges = []
    for r in spans[: rng.randint(0, len(spans))]:
        if not any(_crosses(r, a) for a in ranges):
            ranges.append(r)
    return rng, word, ranges


@given(laminar_families())
@settings(max_examples=200, deadline=None)
def test_gen_language_edges_grow_with_the_ranges(family):
    # the invariant the star session rests on: over laminar R ⊆ R', the
    # states are the same and R's edges are a subset of R''s
    rng, word, ranges = family
    bigger = gen_language(StarGeneralization(word, frozenset(ranges)))
    smaller = gen_language(StarGeneralization(word, frozenset(r for r in ranges if rng.random() < 0.5)))
    assert smaller.transitions <= bigger.transitions
    assert (smaller.num_states, smaller.initial, smaller.accepting) == (
        bigger.num_states, bigger.initial, bigger.accepting,
    )
    expected = _star_regex(word, ranges, 0, len(word))
    if (0, len(word)) in ranges:
        expected = star(expected)
    assert equivalent(bigger, regex_to_nfa(expected))


# --- star_generalize ----------------------------------------------------------


def test_star_generalize_trace():
    sg = star_generalize(AAB, AIBI1)
    assert sg.ranges == GEN_AAB_RANGES


def test_star_candidate_order():
    assert refinement._star_candidates(3) == [
        (0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3),
    ]


def test_eps_candidates_have_the_two_edge_shapes():
    # forward epsilon edges (i, ε, j), then backward edges (j-1, w[j-1], i)
    # that replay the chain's label, each for every i < j in the star order
    for n in range(6):
        spans = refinement._star_candidates(n)
        assert sorted(spans) == [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
        for word in itertools.product("ab", repeat=n):
            forward = [((i, None, j),) for i, j in spans]
            backward = [((j - 1, word[j - 1], i),) for i, j in spans]
            assert refinement._eps_candidates(word) == forward + backward


def test_star_generalize_accepts_and_rejects_in_trace_order(monkeypatch):
    # each candidate range is one batch on the star session
    outcomes = []
    real = PrestarSession.try_add

    def spy(self, batch):
        result = real(self, batch)
        outcomes.append(result)
        return result

    monkeypatch.setattr(PrestarSession, "try_add", spy)
    star_generalize(AAB, AIBI1)
    # include (0,1); exclude (1,2), (2,3), (0,2); include (1,3), (0,3)
    assert outcomes == [True, False, False, False, True, True]


def test_star_generalize_empty_witness():
    sg = star_generalize((), AIBI1)
    assert sg.ranges == frozenset()
    assert enumerate_accepted(gen_language(sg), 2) == frozenset({()})


def test_star_generalize_incomparable_maxima():
    sg = star_generalize(("a", "b"), NOT_ASTARB_OR_ABSTAR)
    lang = enumerate_accepted(gen_language(sg), 6)
    a_star_b = {w for w in words_upto(("a", "b"), 6) if "".join(w).endswith("b") and set("".join(w)[:-1]) <= {"a"}}
    a_b_star = {w for w in words_upto(("a", "b"), 6) if "".join(w).startswith("a") and set("".join(w)[1:]) <= {"b"}}
    assert lang in (frozenset(a_star_b), frozenset(a_b_star))


def test_star_generalize_precondition():
    with pytest.raises(GrammarError):
        star_generalize(("b",), AIBI1)  # "b" is in the language


def test_star_generalize_test_budget(monkeypatch):
    counter = {"n": 0}
    real = PrestarSession.try_add

    def counting(self, batch):
        counter["n"] += 1
        return real(self, batch)

    monkeypatch.setattr(PrestarSession, "try_add", counting)
    n = len(AAB)
    star_generalize(AAB, AIBI1)
    assert 0 < counter["n"] <= n * (n + 1) // 2


def _added_edges(word, chosen, r):
    """The edges that starring ``r`` adds to the ranges ``chosen``, in the
    order of a batch."""
    before = gen_language(StarGeneralization(word, frozenset(chosen))).transitions
    after = gen_language(StarGeneralization(word, frozenset(chosen) | {r})).transitions
    return sorted(after - before, key=lambda e: (e[0], e[2]))


@st.composite
def star_session_runs(draw):
    """A random grammar, a word of up to 9 letters, and candidate ranges,
    each with a flag to pop the newest chosen range after trying it."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**9)))
    word = tuple(rng.choice("ab") for _ in range(rng.randint(0, 9)))
    spans = refinement._star_candidates(len(word))
    steps = [(rng.choice(spans), rng.random() < 0.3) for _ in range(rng.randint(0, 10) if spans else 0)]
    return random_cfg(rng), word, steps


class _Recording:
    """A session stand-in over ``base`` that records each batch tried on it,
    answers with ``accept(batch)`` and pops with ``undo()``."""

    def __init__(self, base, accept, undo=lambda: None):
        self.base, self.accept, self.pop, self.batches = base, accept, undo, []

    def try_add(self, edges):
        self.batches.append(edges)
        return self.accept(edges)


def _base(word):
    return gen_language(StarGeneralization(word, frozenset()))


@given(star_session_runs())
@settings(max_examples=150, deadline=None)
def test_star_session_agrees_with_a_fresh_intersection(run):
    # every answer of a session over the position automaton, fed the batches
    # of _star_steps, is the one a fresh emptiness test gives for the
    # starred language, and a pop restores exactly the session before the
    # popped range
    g, word, steps = run
    session = PrestarSession(g, _base(word))
    assert session.intersects() == in_language(g, word)
    if session.intersects():
        return
    spy = _Recording(session.base, session.try_add, session.pop)
    include, pop = refinement._star_steps(word, spy)
    chosen: list[tuple[int, int]] = []
    before = []  # the session's state before each chosen range
    for r, popped in steps:
        if r in chosen:
            continue  # the walk never tries these
        spy.batches.clear()
        state = saturation_state(session._sat)
        kept = include(r)
        assert (kept is None) == any(_crosses(r, a) for a in chosen)
        if kept is None:
            assert spy.batches == []
            continue
        assert spy.batches == [_added_edges(word, chosen, r)]
        assert kept == (not intersects(g, gen_language(StarGeneralization(word, frozenset(chosen) | {r}))))
        if kept:
            chosen.append(r)
            before.append(state)
        assert session.automaton() == gen_language(StarGeneralization(word, frozenset(chosen)))
        if popped and chosen:  # as the maximal walks do between siblings
            pop()
            chosen.pop()
            assert saturation_state(session._sat) == before.pop()
            assert session.automaton() == gen_language(StarGeneralization(word, frozenset(chosen)))


def test_star_batches_are_the_added_edges_along_max_walks():
    # grammar-free: a session stand-in accepts at random, so the max walk's
    # order yields random include/pop sequences, and every batch must be the
    # edges that starring its range adds to the chosen ones
    rng = random.Random(23)
    batches = shared_starts = 0
    for _ in range(60):
        word = tuple(rng.choice("ab") for _ in range(rng.randint(0, 10)))
        session = _Recording(_base(word), lambda edges: rng.random() < 0.7)
        include, pop = refinement._star_steps(word, session)
        chosen: list[tuple[int, int]] = []

        def checked(r):
            nonlocal batches, shared_starts
            session.batches.clear()
            kept = include(r)
            assert (kept is None) == any(_crosses(r, a) for a in chosen)
            if kept is not None:
                assert session.batches == [_added_edges(word, chosen, r)]
                batches += 1
                shared_starts += any(a[0] == r[0] for a in chosen)
            if kept:
                chosen.append(r)
            return kept

        def popped():
            pop()
            chosen.pop()

        walk = refinement._walk(checked, popped, refinement._star_candidates(len(word)))
        for _ in itertools.islice(walk, 40):
            pass
    assert batches > 2000 and shared_starts > 1000


def test_star_batches_are_the_added_edges_in_any_order():
    # candidates in random order, so a chosen range may lie around the new
    # one, with random commits and pops
    rng = random.Random(29)
    batches = around = 0
    for _ in range(200):
        word = tuple(rng.choice("ab") for _ in range(rng.randint(1, 10)))
        spans = refinement._star_candidates(len(word))
        session = _Recording(_base(word), lambda edges: rng.random() < 0.6)
        include, pop = refinement._star_steps(word, session)
        chosen: list[tuple[int, int]] = []
        for _ in range(30):
            r = rng.choice(spans)
            if r in chosen:
                continue
            session.batches.clear()
            kept = include(r)
            assert (kept is None) == any(_crosses(r, a) for a in chosen)
            if kept is not None:
                assert session.batches == [_added_edges(word, chosen, r)]
                batches += 1
                around += any(a[0] <= r[0] and r[1] <= a[1] for a in chosen)
                if kept:
                    chosen.append(r)
            while chosen and rng.random() < 0.3:
                pop()
                chosen.pop()
    assert batches > 2000 and around > 500


def _fresh_batch(word, chosen, r):
    """What ``include(r)`` answers and tries on fresh steps that included
    ``chosen`` from scratch, on a stand-in session that keeps every batch."""
    session = _Recording(_base(word), lambda edges: True)
    include, _ = refinement._star_steps(word, session)
    for a in chosen:
        assert include(a)
    session.batches.clear()
    return include(r), session.batches


def test_star_steps_pop_restores_the_table():
    # random include/pop sequences: after every pop the next include tries
    # the batch that steps built from scratch on the same ranges try, so a
    # pop leaves no coverable gap and no held edge of the popped range behind
    rng = random.Random(31)
    pops = reincluded = 0
    for _ in range(300):
        word = tuple(rng.choice("ab") for _ in range(rng.randint(0, 10)))
        spans = refinement._star_candidates(len(word))
        if not spans:
            continue
        session = _Recording(_base(word), lambda edges: rng.random() < 0.7)
        include, pop = refinement._star_steps(word, session)
        chosen: list[tuple[int, int]] = []
        last = None  # the range popped last, until the next include
        for _ in range(30):
            if chosen and rng.random() < 0.35:
                pop()
                last = chosen.pop()
                pops += 1
                continue
            r = last if last is not None and rng.random() < 0.5 else rng.choice(spans)
            if r in chosen:
                continue
            session.batches.clear()
            kept = include(r)
            if last is not None:
                fresh, batches = _fresh_batch(word, chosen, r)
                assert (kept is None, session.batches) == (fresh is None, batches)
                reincluded += r == last
                last = None
            if kept:
                chosen.append(r)
    assert pops > 1000 and reincluded > 300


def _fixture_words_outside():
    """Each fixture grammar with each word of up to 3 letters outside it."""
    for path in sorted(FIXTURES.glob("*.cfg")):
        for g in load_fixture(path.name):
            for w in words_upto(tuple(g.terminals), 3):
                if not in_language(g, w):
                    yield g, w


def test_greedy_generalizers_never_pop(monkeypatch):
    # a greedy walk takes the first leaf, so it never undoes a choice
    def refuse(self):
        raise AssertionError("a greedy walk popped a batch")

    monkeypatch.setattr(PrestarSession, "pop", refuse)
    tried = 0
    for g, w in _fixture_words_outside():
        tried += 1
        assert not intersects(g, gen_language(star_generalize(w, g)))
        assert not intersects(g, eps_generalize(w, g))
    assert tried > 100


def _budget_or(generalize):
    try:
        return generalize()
    except BudgetExceededError:
        return "budget"


def test_engine_generalize_is_the_public_generalization(monkeypatch):
    # the engine reads every strategy's automaton off the walk's session; it
    # is the public function's, and a max walk runs out of budget on both
    # sides alike
    budget = 60
    public = {
        "greedy-star": lambda g, w: gen_language(star_generalize(w, g)),
        "greedy-eps": lambda g, w: eps_generalize(w, g),
        "max-star": lambda g, w: max_star_generalize(g, w, budget=budget),
        "max-eps": lambda g, w: max_eps_generalize(g, w, budget=budget),
    }
    assert tuple(public) == engine.STRATEGIES
    monkeypatch.setattr(engine, "_generalization", functools.partial(refinement._generalization, budget=budget))
    pairs = list(_fixture_words_outside())
    assert len(pairs) > 100
    for strategy, generalize in public.items():
        config = Config(strategy=strategy)
        hits = 0
        for g, w in pairs:
            got = _budget_or(lambda: engine._generalize(g, w, config))
            assert got == _budget_or(lambda: generalize(g, w))
            hits += got == "budget"
        assert hits < len(pairs) and (hits > 0) == strategy.startswith("max")


def _walk_leaves(g, w, family):
    """The leaves of the maximal walk of one family on ``w`` and the
    reference automaton of a leaf, or None past a small budget."""
    if family == "star":
        session = PrestarSession(g, gen_language(StarGeneralization(w, frozenset())))
        candidates, (include, pop) = refinement._star_candidates(len(w)), refinement._star_steps(w, session)

        def reference(ranges):
            return gen_language(StarGeneralization(w, ranges))
    else:
        session = PrestarSession(g, word_automaton(w))
        candidates, include, pop = refinement._eps_candidates(w), session.try_add, session.pop

        def reference(batches):
            base = session.base
            return Nfa(base.num_states, base.alphabet, base.transitions.union(*batches), base.initial, base.accepting)
    try:
        return list(refinement._walk(include, pop, candidates, budget=3000)), reference
    except BudgetExceededError:
        return None


def test_max_generalization_reads_the_maximal_leaves_in_walk_order(monkeypatch):
    # the include-first walk yields every strict superset of a leaf before
    # the leaf, so keeping a leaf unless a kept one holds it keeps exactly
    # the subset-maximal leaves; the session's automaton is read at each of
    # them, holding that leaf's batches, and unioned in walk order
    reads = []
    real = PrestarSession.automaton

    def spy(self):
        got = real(self)
        reads.append((len(self.edges), got))
        return got

    monkeypatch.setattr(PrestarSession, "automaton", spy)
    rng = random.Random(5)
    walks = 0
    while walks < 60:
        g = random_cfg(rng)
        w = tuple(rng.choice("ab") for _ in range(rng.randint(0, 4)))
        if in_language(g, w):
            continue
        for family in ("star", "eps"):
            found = _walk_leaves(g, w, family)
            if found is None:
                continue
            walks += 1
            leaves, reference = found
            assert len(set(leaves)) == len(leaves)
            for i, leaf in enumerate(leaves):
                assert not any(leaf < later for later in leaves[i + 1:])
            maxima = [leaf for leaf in leaves if not any(leaf < other for other in leaves)]
            reads.clear()
            got, first = refinement._generalization(g, w, f"max-{family}", budget=3000)
            assert reads == [(len(leaf), reference(leaf)) for leaf in maxima]
            assert got == union(*map(reference, maxima))
            assert first == leaves[0]
            reads.clear()
            greedy, first = refinement._generalization(g, w, f"greedy-{family}")
            assert reads == [(len(leaves[0]), greedy)] and greedy == reference(leaves[0])
            assert first == leaves[0]


# --- eps_generalize -----------------------------------------------------------


def test_eps_generalize_running_example():
    gen = eps_generalize(AAB, AIBI1)
    expected = regex_to_nfa(
        cat(star(cat(star(lit("a")), lit("a"), lit("b"))), star(lit("a")))
    )
    assert equivalent(gen, expected)


def test_eps_generalize_accepts_edges_in_candidate_order(monkeypatch):
    accepted = []
    real = PrestarSession.try_add

    def spy(self, batch):
        ok = real(self, batch)
        if ok:
            accepted.extend(batch)
        return ok

    monkeypatch.setattr(PrestarSession, "try_add", spy)
    gen = eps_generalize(AAB, AIBI1)
    assert accepted == [
        (0, None, 1), (2, None, 3), (1, None, 3), (0, None, 3),
        (0, "a", 0), (1, "a", 1), (1, "a", 0), (2, "b", 1), (2, "b", 0),
    ]
    base = word_automaton(AAB)
    assert gen == Nfa(
        base.num_states,
        base.alphabet,
        base.transitions | frozenset(accepted),
        base.initial,
        base.accepting,
    )


def test_eps_generalize_single_letter():
    g1 = grammar(
        'grammar G1 { start S; S -> A B; '
        'A -> "a" "a" | "b" "b" | "a" S "a" | "b" S "b"; '
        'B -> "a" "b" B | "a" "b"; }'
    )
    gen = eps_generalize(("b",), g1)
    assert equivalent(gen, regex_to_nfa(star(lit("b"))))


def test_eps_generalize_empty_witness():
    gen = eps_generalize((), AIBI1)
    assert enumerate_accepted(gen, 3) == frozenset({()})


def _refuse_fresh_checks(monkeypatch):
    def refuse(g, a):
        raise AssertionError("separate membership or emptiness check")

    assert not hasattr(refinement, "in_language")
    monkeypatch.setattr(importlib.import_module("cflsep.prestar"), "in_language", refuse)
    monkeypatch.setattr(refinement, "intersects", refuse)


def test_eps_generalizers_read_membership_off_the_session(monkeypatch):
    # the session's base saturation is the precondition check; no second one
    _refuse_fresh_checks(monkeypatch)
    assert eps_generalize(AAB, AIBI1) is not None
    assert max_eps_generalize(AIBI1, AAB) is not None
    for generalize in (eps_generalize, lambda w, g: max_eps_generalize(g, w)):
        with pytest.raises(GrammarError):
            generalize(("b",), AIBI1)  # "b" is in the language


def test_star_generalizers_run_on_one_session(monkeypatch):
    # membership is read off the base saturation of the position automaton,
    # and every candidate range is a batch on the same session
    _refuse_fresh_checks(monkeypatch)
    assert star_generalize(AAB, AIBI1).ranges == GEN_AAB_RANGES
    assert max_star_generalize(AIBI1, AAB) is not None
    for generalize in (star_generalize, lambda w, g: max_star_generalize(g, w)):
        with pytest.raises(GrammarError):
            generalize(("b",), AIBI1)


def test_star_generalizers_build_only_the_base_position_automaton(monkeypatch):
    # the batches come from the coverability table and every leaf is read
    # off the session: a star generalization of any strategy builds only its
    # base position automaton
    builds = {"n": 0}
    real = refinement.gen_language

    def counting(sg):
        builds["n"] += 1
        return real(sg)

    monkeypatch.setattr(refinement, "gen_language", counting)
    generalizers = [
        lambda w: engine._generalize(AIBI1, w, Config(strategy="greedy-star")),
        lambda w: star_generalize(w, AIBI1),
        lambda w: engine._generalize(AIBI1, w, Config(strategy="max-star")),
        lambda w: max_star_generalize(AIBI1, w),
    ]
    for w in (AAB, ("a", "a", "b", "a", "a", "b", "b"), ()):
        for generalize in generalizers:
            builds["n"] = 0
            generalize(w)
            assert builds["n"] == 1


def test_eps_generalize_edge_budget(monkeypatch):
    session_calls = {"n": 0}
    original = PrestarSession.try_add

    def counting(self, batch):
        session_calls["n"] += 1
        return original(self, batch)

    monkeypatch.setattr(PrestarSession, "try_add", counting)
    n = len(AAB)
    eps_generalize(AAB, AIBI1)
    assert 0 < session_calls["n"] <= n * (n + 1)


# --- refining an approximation (difference) ---------------------------------


def test_refine_approx_running_example():
    gen = gen_language(star_generalize(AAB, AIBI1))
    refined = difference(A_STAR_B_STAR, gen)
    expected = hand_nfa(
        5,
        ("a", "b"),
        {
            (0, "b", 1),
            (1, "b", 1),
            (0, "a", 2),
            (2, "a", 2),
            (2, "b", 3),
            (3, "b", 4),
            (4, "b", 4),
        },
        0,
        {1, 4},
    )
    assert equivalent(refined, expected)


def test_refine_approx_empty_generalization():
    nothing = hand_nfa(1, ("a", "b"), set(), 0, set())
    refined = difference(A_STAR_B_STAR, nothing)
    assert equivalent(refined, A_STAR_B_STAR)


def test_refine_approx_drops_witness():
    rng = random.Random(6)
    for _ in range(25):
        g = random_cfg(rng)
        w = tuple(rng.choice(("a", "b")) for _ in range(rng.randint(0, 3)))
        if in_language(g, w):
            continue
        gen = gen_language(star_generalize(w, g))
        refined = difference(A_STAR_B_STAR, gen)
        assert not accepts(refined, w)


# --- maximum star generalization ------------------------------------------------


def test_max_star_generalize_union_of_maxima():
    got = max_star_generalize(NOT_ASTARB_OR_ABSTAR, ("a", "b"))
    lang = enumerate_accepted(got, 6)
    expected = frozenset(
        w for w in words_upto(("a", "b"), 6) if in_a_star_b_or_a_b_star(w)
    )
    assert lang == expected


def test_max_star_generalize_no_valid_augmentation():
    # language of everything except "ab" itself: every star lets in a
    # forbidden word, so the union collapses to the witness
    delta = _AB_DELTA
    accept_only_ab = {q for q in range(8) if q != 4}
    g = dfa_grammar(delta, accept_only_ab, 8, ("a", "b"))
    got = max_star_generalize(g, ("a", "b"))
    assert enumerate_accepted(got, 5) == frozenset({("a", "b")})


def test_max_star_generalize_contains_greedy_and_avoids_language():
    got = max_star_generalize(AIBI1, AAB)
    greedy = gen_language(star_generalize(AAB, AIBI1))
    assert is_empty(difference(greedy, got))
    assert not intersects(AIBI1, got)
    assert not accepts(got, ("a", "b", "b"))
    assert not accepts(got, ("b",))


def test_max_star_generalize_budget():
    with pytest.raises(BudgetExceededError):
        max_star_generalize(AIBI1, AAB, budget=2)


@pytest.mark.parametrize(
    "generalize, nodes", [(max_star_generalize, 27), (max_eps_generalize, 1446)]
)
def test_max_generalize_smallest_budget(generalize, nodes):
    # the walk visits exactly this many include/exclude nodes on the running
    # example; a change of candidate order or node counting moves it
    generalize(AIBI1, AAB, budget=nodes)
    with pytest.raises(BudgetExceededError):
        generalize(AIBI1, AAB, budget=nodes - 1)


# --- maximum epsilon generalization ---------------------------------------------


def test_max_eps_generalize_empty_witness():
    got = max_eps_generalize(AIBI1, ())
    assert enumerate_accepted(got, 3) == frozenset({()})


def test_max_eps_contains_greedy():
    got = max_eps_generalize(AIBI1, AAB)
    greedy = eps_generalize(AAB, AIBI1)
    assert is_empty(difference(greedy, got))
    assert not intersects(AIBI1, got)


def test_max_eps_generalize_budget():
    with pytest.raises(BudgetExceededError):
        max_eps_generalize(AIBI1, AAB, budget=2)


def test_max_eps_generalize_deep_tree_hits_budget_not_recursion_limit():
    # 32 letters give 1,056 candidates: the include/exclude tree is deeper
    # than Python's default recursion limit before the budget runs out
    anbn = grammar('grammar A { start S; S -> "a" S "b" | ; }')
    with pytest.raises(BudgetExceededError):
        max_eps_generalize(anbn, ("b",) * 32, budget=5000)


def test_max_eps_generalize_is_independent_of_hash_seed():
    # edge sets hold str labels, so set order follows PYTHONHASHSEED; tied
    # maximal sets must still be unioned in one fixed order
    script = (
        "from cflsep.grammar_io import parse_file\n"
        "from cflsep.nfa import to_dot\n"
        "from cflsep.refinement import max_eps_generalize\n"
        "(g,) = parse_file('grammar A { start S; S -> \"a\" S \"b\" | ; }')\n"
        "print(to_dot(max_eps_generalize(g, ('b', 'a', 'a'))))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    dots = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        dots.append(run.stdout)
    assert dots[0] == dots[1]
    assert dots[0].count("->") > 1


def test_max_generalizations_random():
    rng = random.Random(23)
    done = 0
    while done < 15:
        g = random_cfg(rng)
        w = tuple(rng.choice(("a", "b")) for _ in range(rng.randint(1, 3)))
        if in_language(g, w):
            continue
        done += 1
        m_star = max_star_generalize(g, w)
        m_eps = max_eps_generalize(g, w)
        assert not intersects(g, m_star)
        assert not intersects(g, m_eps)
        assert is_empty(difference(gen_language(star_generalize(w, g)), m_star))
        assert is_empty(difference(eps_generalize(w, g), m_eps))


# --- star/epsilon equivalence bridge --------------------------------------------


def _edge_subsets(word):
    n = len(word)
    forward = [(i, None, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    backward = [
        (j - 1, word[j - 1], i) for j in range(1, n + 1) for i in range(j)
    ]
    pool = forward + backward
    for k in range(len(pool) + 1):
        yield from itertools.combinations(pool, k)


def _chain_plus(word, edges):
    base = word_automaton(word)
    return Nfa(
        base.num_states,
        base.alphabet,
        base.transitions | frozenset(edges),
        base.initial,
        base.accepting,
    )


def _all_wellformed_range_sets(n):
    from cflsep.refinement import _crosses

    pool = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    for k in range(len(pool) + 1):
        for combo in itertools.combinations(pool, k):
            if all(
                not _crosses(r1, r2) for r1, r2 in itertools.combinations(combo, 2)
            ):
                yield frozenset(combo)


def _left_aligned_nesting(ranges):
    return any(r1 != r2 and r1[0] == r2[0] for r1 in ranges for r2 in ranges)


def test_star_generalizations_usually_have_epsilon_twins():
    # Exhaustive over short words: a starred-range language is the language
    # of some edge-augmented chain automaton whenever no two ranges share
    # their start index, and the exceptions all involve such left-aligned
    # nesting (the inner repetition's backward loop plus the outer skip
    # edge admit bare prefix repetitions that the starred expression
    # excludes).
    for word in [("a",), ("a", "b"), ("a", "a"), ("a", "a", "b")]:
        eps_languages = {
            enumerate_accepted(_chain_plus(word, edges), 6)
            for edges in _edge_subsets(word)
        }
        for ranges in _all_wellformed_range_sets(len(word)):
            sg = StarGeneralization(word, ranges)
            lang = enumerate_accepted(gen_language(sg), 6)
            if not _left_aligned_nesting(ranges):
                assert lang in eps_languages
            elif lang not in eps_languages:
                assert _left_aligned_nesting(ranges)


def test_epsilon_twin_gap_for_left_aligned_star_of_star():
    # counterexample: starring both the first letter and the whole of "ab"
    # gives {eps} plus every word ending in b, and no generalization-edge
    # subset of the two-letter chain recognizes exactly that language
    word = ("a", "b")
    target = enumerate_accepted(
        gen_language(StarGeneralization(word, frozenset({(0, 1), (0, 2)}))), 6
    )
    assert target == frozenset(
        w for w in words_upto(("a", "b"), 6) if w == () or w[-1] == "b"
    )
    for edges in _edge_subsets(word):
        assert enumerate_accepted(_chain_plus(word, edges), 6) != target


def test_star_to_epsilon_constructive_translation():
    # without left-aligned nesting the innermost-first edge translation is
    # exact, checked on random words up to length 4
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 4)
        word = tuple(rng.choice(("a", "b")) for _ in range(n))
        families = [
            f for f in _all_wellformed_range_sets(n) if not _left_aligned_nesting(f)
        ]
        ranges = rng.choice(families)
        sg = StarGeneralization(word, ranges)
        twin = _chain_plus(word, eps_edges_for_ranges(word, ranges))
        assert equivalent(gen_language(sg), twin)
