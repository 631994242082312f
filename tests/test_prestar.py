import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cflsep.grammar import GrammarError, normalize
from cflsep.grammar_io import parse_file
from cflsep.nfa import Nfa, word_automaton
from cflsep.prestar import PrestarSession, _context, _rules, _Saturator, in_language, intersects, prestar
from cflsep.refinement import gen_language, StarGeneralization

from oracles import accepts, enumerate_accepted, enumerate_words, prestar_triples
from support import AIBI1, FIXTURES, NAME_CLASH, PALINDROME, grammar, hand_nfa, random_cfg, random_nfa

ABBA = word_automaton(("a", "b", "b", "a"))


def _views(sat):
    """The saturator's triples as read off its journal, by_start and by_end."""
    from_start = {(q, x, r) for q, row in enumerate(sat.by_start) for x, rs in row.items() for r in rs}
    from_end = {(q, x, r) for r, row in enumerate(sat.by_end) for x, qs in row.items() for q in qs}
    assert len(set(sat.journal)) == len(sat.journal)  # each triple journaled once
    return set(sat.journal), from_start, from_end


def test_prestar_palindrome_start_spans():
    gn = normalize(PALINDROME)
    saturated = prestar(gn, ABBA)
    assert (0, "A", 4) in saturated.transitions
    assert saturated.num_states == ABBA.num_states


def test_prestar_accepts_sentential_forms():
    # the saturated automaton reads mixed words over terminals and
    # nonterminals: anything that rewrites to the accepted word
    gn = normalize(PALINDROME)
    saturated = prestar(gn, ABBA)

    assert accepts(saturated, ("A",))
    assert accepts(saturated, ("a", "A", "a"))
    assert accepts(saturated, ("a", "b", "b", "a"))
    assert not accepts(saturated, ("b", "A", "b"))


def test_prestar_epsilon_rule_self_loops():
    g = normalize(grammar('grammar G { start S; S -> ; }'))
    out = prestar(g, ABBA)
    for q in range(5):
        assert (q, "S", q) in out.transitions


def test_prestar_marked_center():
    c3 = normalize(grammar('grammar C3 { start S; S -> "a" S "a" | "a" "c" "a"; }'))
    aca = word_automaton(("a", "c", "a"))
    out = prestar(c3, aca)
    assert in_language(c3, ("a", "c", "a"))
    assert (0, "S", 3) in out.transitions


def test_prestar_requires_normal_form():
    with pytest.raises(GrammarError):
        prestar(PALINDROME, ABBA)  # aAa productions are not normal


def test_intersects_examples():
    assert intersects(PALINDROME, ABBA)
    gen = gen_language(
        StarGeneralization(("a", "a", "b"), frozenset({(0, 1), (1, 3), (0, 3)}))
    )
    assert not intersects(AIBI1, gen)
    empty = hand_nfa(1, ("a",), set(), 0, set())
    assert not intersects(PALINDROME, empty)


def test_foreign_terminal_is_not_a_nonterminal():
    # Tees' terminal "T" is spelled like Ab's start symbol; in Ab it is a
    # foreign symbol and derives nothing
    tees, ab = parse_file(NAME_CLASH)
    assert not intersects(ab, word_automaton(("T",)))
    assert not in_language(ab, ("T",))
    assert not in_language(ab, ("a", "T"))
    assert in_language(tees, ("T", "T"))


def test_prestar_keeps_every_input_edge():
    gn = normalize(AIBI1)
    a = hand_nfa(3, ("a", "z"), {(0, "a", 1), (1, "z", 2), (0, None, 2)}, 0, {2})
    assert a.transitions <= prestar(gn, a).transitions


def test_saturation_is_monotone_and_terminates():
    rng = random.Random(42)
    for _ in range(30):
        g = normalize(random_cfg(rng))
        a = random_nfa(rng)
        sat = _Saturator(g, a)
        sat.saturate()
        journal = list(sat.journal)
        triples, from_start, from_end = _views(sat)
        assert triples == from_start == from_end
        symbols = set(g.variables) | set(g.terminals)
        assert len(triples) <= a.num_states * a.num_states * (len(symbols) + 1)
        sat.saturate()  # fixpoint: nothing more to do
        assert sat.journal == journal
        assert _views(sat) == (triples, triples, triples)


def test_saturation_step_ceiling():
    # non-normative complexity guard: rule applications stay within the
    # productions-times-states-cubed shape
    rng = random.Random(77)
    for _ in range(30):
        g = normalize(random_cfg(rng))
        a = random_nfa(rng)
        sat = _Saturator(g, a)
        sat.saturate()
        rules = len(g.productions)
        symbols = len(g.variables) + len(g.terminals) + 1
        ceiling = 8 * (rules + symbols + 1) * (a.num_states + 1) ** 3
        assert sat.steps <= ceiling


def test_session_rejects_fig4_backward_edge():
    session = PrestarSession(AIBI1, word_automaton(("a", "a", "b")))
    for edge in [(0, None, 1), (2, None, 3), (1, None, 3), (0, None, 3)]:
        assert session.try_add([edge])
    assert not session.try_add([(2, "b", 2)])


def test_session_accepts_forward_epsilon():
    session = PrestarSession(AIBI1, word_automaton(("a", "a", "b")))
    assert session.try_add([(0, None, 3)])  # the empty word is not in L


def test_session_revert_is_exact():
    session = PrestarSession(AIBI1, word_automaton(("a", "a", "b")))
    assert session.try_add([(0, None, 1)])
    journal_before = list(session._sat.journal)
    views_before = _views(session._sat)
    edges_before = list(session.edges)
    assert not session.try_add([(1, None, 2)])  # would accept "b" (in L)
    assert session._sat.journal == journal_before
    assert session._sat.done == len(journal_before)
    assert _views(session._sat) == views_before
    assert list(session.edges) == edges_before


def _fresh_context(g, a):
    """A fresh saturation of g's augmented grammar over ``a``, with the session's seed."""
    aug, _, hat = _context(g)
    sat = _Saturator(aug, a)
    for f in a.accepting:
        sat.add(f, hat[aug.start], a.initial)
    sat.saturate()
    return set(sat.journal)


def test_session_matches_fresh_prestar_after_rejections():
    rng = random.Random(88)
    word = ("a", "a", "b")
    for _ in range(20):
        g = random_cfg(rng)
        if in_language(g, word):
            continue
        session = PrestarSession(g, word_automaton(word))
        edges = [(0, None, 1), (1, None, 2), (0, None, 3), (1, "a", 0), (2, "b", 1)]
        for e in edges:
            session.try_add([e])
        # differential check: the incremental result equals a fresh run,
        # triple for triple, and all three views hold the same triples
        assert session.intersects() == intersects(g, session.automaton())
        a = session.automaton()
        fresh = _Saturator(session.grammar, a)
        fresh.saturate()
        triples, from_start, from_end = _views(session._sat)
        assert triples == from_start == from_end
        own = set(session.grammar.variables) | set(session.grammar.terminals) | {None}
        assert {tr for tr in triples if tr[1] in own} == set(fresh.journal)
        # the context triples are those of the augmented grammar, seeded alike
        context = _fresh_context(g, a)
        assert {tr for tr in triples if tr[1] not in own} == context - set(fresh.journal)
        assert triples == context


def _rows(rows):
    """A copy of the rows (they change in place), without the empty rows that
    a lookup or a revert leaves behind."""
    return [{x: frozenset(states) for x, states in row.items() if states} for row in rows]


def _spy_on_revert(monkeypatch, sat):
    """Record (done, journal length) at each call of ``sat.revert``."""
    at_revert = []
    revert = sat.revert

    def spy(mark):
        at_revert.append((sat.done, len(sat.journal)))
        revert(mark)

    monkeypatch.setattr(sat, "revert", spy)
    return at_revert


ABABAB = grammar('grammar G { start S; S -> "a" "b" "a" "b" "a" "b"; }')


def test_rejected_edge_stops_before_the_fixpoint_and_reverts_exactly(monkeypatch):
    session = PrestarSession(ABABAB, word_automaton(("a", "b")))
    for edge in [(0, None, 1), (1, None, 2), (0, "a", 0), (1, "b", 1)]:
        assert session.try_add([edge])
    sat = session._sat
    before = (list(sat.journal), sat.done, _rows(sat.by_start), _rows(sat.by_end))
    assert not sat.goal_met
    at_revert = _spy_on_revert(monkeypatch, sat)
    # "ababab" needs the edge twice, so no context triple catches it: the
    # lookup misses and the saturation rejects
    assert 1 not in sat.by_start[0].get(sat.hat["b"], ())
    assert not session.try_add([(1, "b", 0)])
    (done, derived), = at_revert
    assert done < derived  # the goal was met with worklist entries left
    assert (list(sat.journal), sat.done, _rows(sat.by_start), _rows(sat.by_end)) == before
    assert not sat.goal_met
    # the fixpoint with the rejected edge holds more triples than were derived
    rejected = session.automaton()
    full = _Saturator(
        session.grammar, replace(rejected, transitions=rejected.transitions | {(1, "b", 0)}), context=True
    )
    full.saturate()
    assert derived < len(full.journal)
    # later accepted edges give the same triples as a fresh saturation
    assert session.try_add([(0, None, 2)])
    assert _views(sat) == (_fresh_context(ABABAB, session.automaton()),) * 3


def test_caught_rejection_touches_nothing(monkeypatch):
    session = PrestarSession(AIBI1, word_automaton(("a", "a", "b")))
    for edge in [(0, None, 1), (2, None, 3), (1, None, 3), (0, None, 3), (0, "a", 0), (1, "a", 1)]:
        assert session.try_add([edge])
    sat = session._sat
    before = (list(sat.journal), sat.done, sat.steps, _rows(sat.by_start), _rows(sat.by_end))
    at_revert = _spy_on_revert(monkeypatch, sat)
    # (2, b^, 2): "a" leads to 2 and "b" from 2 to the end, and S =>* a b b
    assert 2 in sat.by_start[2][sat.hat["b"]]
    assert not session.try_add([(2, "b", 2)])
    assert at_revert == []
    assert (list(sat.journal), sat.done, sat.steps, _rows(sat.by_start), _rows(sat.by_end)) == before
    assert not sat.goal_met and ((2, "b", 2),) not in session.edges
    # the same for an epsilon edge, caught by the hole: "b" is in L
    assert 1 in sat.by_start[2][sat.hat[None]]
    assert not session.try_add([(1, None, 2)])
    assert at_revert == []
    assert (list(sat.journal), sat.done, sat.steps, _rows(sat.by_start), _rows(sat.by_end)) == before


@st.composite
def grammar_automaton_pairs(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**9)))
    return random_cfg(rng), random_nfa(rng)


@given(grammar_automaton_pairs())
@settings(max_examples=100, deadline=None)
def test_kernel_matches_reference_fixpoint(pair):
    g, a = pair
    gn = normalize(g)
    reference = prestar_triples(gn, a)
    assert prestar(gn, a).transitions == a.transitions | reference
    spans = any((a.initial, gn.start, f) in reference for f in a.accepting)
    assert intersects(g, a) == spans


def test_context_grammar_is_indexed_as_its_normal_form():
    # _context indexes the augmented grammar's productions as they are
    rng = random.Random(606)
    grammars = [g for path in sorted(FIXTURES.glob("*.cfg")) for g in parse_file(path.read_text())]
    for g in grammars + [random_cfg(rng) for _ in range(60)]:
        aug, of, _ = _context(g)
        assert normalize(aug) == aug
        assert of == _rules.__wrapped__(aug)[3]


def test_each_grammar_fills_one_rule_index_slot():
    # intersects, in_language and sessions share the index of the grammar
    # they are given, and do not key a second one by its normal form; a
    # session also fills one slot of _context, for its augmented grammar,
    # whose index is not keyed in _rules
    g = grammar('grammar G { start S; S -> "a" S "b" | "c"; }')
    assert normalize(g) != g
    _rules.cache_clear()
    _context.cache_clear()
    assert intersects(g, word_automaton(("a", "c", "b")))
    assert not in_language(g, ("a", "c"))
    assert _context.cache_info().currsize == 0
    session = PrestarSession(g, word_automaton(("c", "b")))
    assert session.try_add([(0, None, 1)]) and not session.try_add([(1, None, 2)])  # "b", then "c"
    assert PrestarSession(g, word_automaton(("a",))).try_add([(0, "a", 0)])
    assert _rules.cache_info().currsize == 1
    assert _context.cache_info().currsize == 1
    # ten grammars, as one query may hand in, each classified and then
    # generalized: after the first round neither cache misses
    tails = [' "c"' * i for i in range(1, 11)]
    grammars = [grammar(f'grammar G {{ start S; S -> "a" S "b" |{tail}; }}') for tail in tails]
    for round_ in range(2):
        misses = _rules.cache_info().misses, _context.cache_info().misses
        for h in grammars:
            assert not in_language(h, ("a",))
            assert PrestarSession(h, word_automaton(("a",))).try_add([(0, "a", 0)])
        if round_:
            assert (_rules.cache_info().misses, _context.cache_info().misses) == misses


@st.composite
def session_runs(draw):
    """A random grammar, a word outside or inside its language, and a sequence
    of generalization edges of both shapes, each with a rollback flag."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**9)))
    word = tuple(rng.choice("ab") for _ in range(rng.randint(0, 4)))
    spans = [(i, j) for i in range(len(word) + 1) for j in range(i + 1, len(word) + 1)]
    steps = []
    for _ in range(rng.randint(0, 12) if spans else 0):
        i, j = rng.choice(spans)
        edge = (i, None, j) if rng.random() < 0.5 else (j - 1, word[j - 1], i)
        steps.append((edge, rng.random() < 0.2))
    return random_cfg(rng), word, steps


@given(session_runs())
@settings(max_examples=150, deadline=None)
def test_try_add_agrees_with_a_fresh_intersection(run):
    # whether the lookup or the saturation answers, every answer is the one a
    # fresh emptiness test gives for the committed edges plus the new one
    g, word, steps = run
    session = PrestarSession(g, word_automaton(word))
    for edge, undo in steps:
        a = session.automaton()
        token = session.snapshot()
        expected = not intersects(g, replace(a, transitions=a.transitions | {edge}))
        assert session.try_add([edge]) == expected
        if undo:  # as the maximal walks do between siblings
            session.rollback(token)
            assert session.automaton() == a
    assert _views(session._sat) == (_fresh_context(g, session.automaton()),) * 3


def test_chain_labels_spelled_like_grammar_names_stay_foreign():
    # Ab's nonterminal T and the hat and hole names of its augmentation label
    # chain edges here; they are not Ab's terminals, so a backward edge on them
    # adds nothing and is accepted, as it was before context triples
    _, ab = parse_file(NAME_CLASH)
    _, _, hat = _context(ab)
    for label in ("T", hat["T"], hat["a"], hat[None]):
        session = PrestarSession(ab, word_automaton(("a", label)))
        assert session.try_add([(0, None, 2)])  # ε is not in L(Ab)
        # (0, T^, 1): "a" leads to 1, ε from 0 to the end, and T =>* a T;
        # a lookup keyed by the label would reject the edge
        assert 1 in session._sat.by_start[0][hat["T"]]
        assert session.try_add([(1, label, 0)])
        assert session.try_add([(1, label, 1)])
        assert not session.intersects()


def test_try_add_rejects_foreign_endpoints_and_labels():
    session = PrestarSession(AIBI1, word_automaton(("a", "a", "b")))
    for edge in [(0, None, 4), (4, "a", 0), (-1, None, 2), (0, "z", 1), (2, "S", 1)]:
        with pytest.raises(GrammarError):
            session.try_add([edge])
    assert session.edges == []


def test_batches_over_a_base_automaton_are_all_or_nothing():
    base = word_automaton(("a", "a", "b"))
    session = PrestarSession(AIBI1, base)
    sat = session._sat
    before = (list(sat.journal), _rows(sat.by_start), _rows(sat.by_end))
    # each edge alone keeps L(AIBI1) out; together they accept "b"
    assert not session.try_add([(0, None, 1), (1, None, 2)])
    assert session.edges == [] and session.automaton() == base
    assert (list(sat.journal), _rows(sat.by_start), _rows(sat.by_end)) == before
    assert session.try_add([(0, None, 1)])
    # now a context triple (2, H, 1) catches the other edge, whatever else the batch holds
    assert 1 in sat.by_start[2][sat.hat[None]]
    assert not session.try_add([(3, "b", 3), (1, None, 2)])
    assert session.edges == [((0, None, 1),)]
    # a backward epsilon edge is no epsilon-generalization shape; the session
    # decides it as any other edge
    backward = [(2, None, 1)]
    expected = not intersects(AIBI1, replace(base, transitions=base.transitions | {(0, None, 1), (2, None, 1)}))
    assert session.try_add(backward) == expected
    with pytest.raises(GrammarError):
        session.try_add([(0, None, 4)])  # no state 4


def test_session_automaton_checks_labels_over_a_base_automaton():
    # try_add checks each label against the base's alphabet before it adds
    # anything, so every committed edge is one that Nfa(...) accepts
    session = PrestarSession(AIBI1, word_automaton(("a", "a", "b")))
    sat = session._sat
    before = (list(sat.journal), sat.done, sat.steps, _rows(sat.by_start), _rows(sat.by_end))
    with pytest.raises(GrammarError, match="'z'"):
        session.try_add([(0, None, 1), (0, "z", 1)])
    assert (list(sat.journal), sat.done, sat.steps, _rows(sat.by_start), _rows(sat.by_end)) == before
    assert session.edges == []
    assert session.try_add([(0, None, 1)]) and session.try_add([(0, "a", 0)])
    a = session.automaton()
    assert a == Nfa(a.num_states, a.alphabet, a.transitions, a.initial, a.accepting)


def test_intersects_agrees_with_brute_force():
    rng = random.Random(4321)
    for _ in range(40):
        g = random_cfg(rng)
        a = random_nfa(rng)
        automaton_words = enumerate_accepted(a, 5)
        grammar_words = enumerate_words(g, 5)
        oracle = bool(automaton_words & grammar_words)
        if oracle:
            assert intersects(g, a)
        if not intersects(g, a):
            assert not oracle
