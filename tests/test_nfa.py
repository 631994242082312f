import copy
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cflsep.approximation import nederhof, sigma_star
from cflsep.grammar_io import parse_file
from cflsep.nfa import (
    Nfa,
    _dfa,
    _from_rows,
    _merge_alphabets,
    _product_rows,
    complement,
    determinize,
    difference,
    eliminate_epsilon,
    intersect,
    is_empty,
    minimize,
    shortest_common_word,
    to_dot,
    trim,
    union,
    word_automaton,
)
from cflsep.prestar import PrestarSession, in_language, intersects
from cflsep.refinement import (
    StarGeneralization,
    _crosses,
    _eps_candidates,
    eps_generalize,
    gen_language,
    max_eps_generalize,
    max_star_generalize,
)

from oracles import (
    accepts,
    cat,
    enumerate_accepted,
    equivalent,
    equivalent_states,
    lit,
    reference_product,
    regex_to_nfa,
    star,
)
from support import (
    AIBI1,
    FIXTURES,
    check_stored_as_rows,
    hand_nfa,
    load_fixture,
    random_cfg,
    random_nfa,
    rebuild,
    words_upto,
)

SIGMA_STAR = hand_nfa(1, ("a", "b"), {(0, "a", 0), (0, "b", 0)}, 0, {0})

# a* b*
A_STAR_B_STAR = hand_nfa(
    2, ("a", "b"), {(0, "a", 0), (0, "b", 1), (1, "b", 1)}, 0, {0, 1}
)

# (a*(ab)*)*: the star-generalization language of the running example
GEN_AAB = regex_to_nfa(star(cat(star(lit("a")), star(cat(lit("a"), lit("b"))))))

# bb* | aa*bbb*  (b at least once, or a's then two or more b's)
BPLUS_OR_AB2 = hand_nfa(
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


def _product(a: Nfa, b: Nfa) -> Nfa:
    """Untrimmed ``L(a) ∩ L(b)``: the pairs the product walk reaches, in
    discovery order, with their rows recorded."""
    return _from_rows(*_product_rows(a, b))


def test_word_automaton_chain():
    a = word_automaton(("a", "a", "b"))
    assert a.num_states == 4
    assert a.transitions == frozenset({(0, "a", 1), (1, "a", 2), (2, "b", 3)})
    assert a.accepting == frozenset({3})
    assert accepts(a, ("a", "a", "b"))
    assert not accepts(a, ("a", "b"))


def test_word_automaton_empty_word():
    a = word_automaton(())
    assert a.num_states == 1
    assert a.transitions == frozenset()
    assert accepts(a, ())


def test_word_automaton_transition_count():
    for w in [("a",), ("a", "b", "a", "b"), ("x", "y")]:
        assert len(word_automaton(w).transitions) == len(w)


def test_intersect_with_sigma_star_is_identity():
    a = word_automaton(("a", "b"))
    assert equivalent(intersect(SIGMA_STAR, a), a)


def test_intersect_a_star_b_star():
    a_star = hand_nfa(1, ("a",), {(0, "a", 0)}, 0, {0})
    b_star = hand_nfa(1, ("b",), {(0, "b", 0)}, 0, {0})
    product = intersect(a_star, b_star)
    assert enumerate_accepted(product, 3) == frozenset({()})


def test_intersect_refinement_example():
    # a*b* minus the generalization: via intersection with its complement
    got = intersect(A_STAR_B_STAR, complement(GEN_AAB, ("a", "b")))
    assert equivalent(got, BPLUS_OR_AB2)


def test_complement_of_sigma_star_is_empty():
    assert is_empty(complement(SIGMA_STAR))


def test_complement_of_generalization():
    comp = complement(GEN_AAB, ("a", "b"))
    assert not accepts(comp, ("a", "a", "b"))
    assert accepts(comp, ("b",))


def test_complement_involution_bounded():
    rng = random.Random(13)
    for _ in range(30):
        a = random_nfa(rng)
        back = complement(complement(a, ("a", "b")), ("a", "b"))
        assert equivalent(a, back)


def test_difference_example_languages():
    got = difference(A_STAR_B_STAR, GEN_AAB)
    assert equivalent(got, BPLUS_OR_AB2)


def test_difference_with_self_is_empty():
    rng = random.Random(5)
    for _ in range(20):
        a = random_nfa(rng)
        assert is_empty(difference(a, a))


def test_difference_sigma_star_minus_epsilon():
    eps_only = word_automaton(())
    rest = difference(SIGMA_STAR, eps_only)
    w = shortest_common_word([rest], rest.alphabet)
    assert w == ("a",)
    assert not accepts(rest, ())


def test_shortest_witness_of_sigma_star_product():
    both = intersect(SIGMA_STAR, SIGMA_STAR)
    assert shortest_common_word([both], both.alphabet) == ()


def test_shortest_witness_empty_language():
    dead = hand_nfa(1, ("a",), set(), 0, set())
    assert shortest_common_word([dead], dead.alphabet) is None


def test_shortest_witness_prefers_alphabet_order():
    # both length-1 words accepted; declared order a < b picks "a"
    both = hand_nfa(2, ("a", "b"), {(0, "a", 1), (0, "b", 1)}, 0, {1})
    assert shortest_common_word([both], both.alphabet) == ("a",)
    flipped = hand_nfa(2, ("b", "a"), {(0, "a", 1), (0, "b", 1)}, 0, {1})
    assert shortest_common_word([flipped], flipped.alphabet) == ("b",)


def test_shortest_witness_minimality():
    rng = random.Random(99)
    for _ in range(60):
        a = random_nfa(rng)
        w = shortest_common_word([a], a.alphabet)
        accepted = enumerate_accepted(a, 6)
        if w is None:
            assert accepted == frozenset()
        elif len(w) <= 6:
            assert w in accepted
            assert all(len(v) >= len(w) for v in accepted)
            same_length = sorted(v for v in accepted if len(v) == len(w))
            assert w == same_length[0]  # ("a","b") order is lexicographic
    # "a" reaches states 1 and 2: "ab" is found through 1 before "aa" through 2
    # unless the walk expands both together
    fork = hand_nfa(
        4, ("a", "b"), {(0, "a", 1), (0, "a", 2), (1, "b", 3), (2, "a", 3)}, 0, {3}
    )
    assert shortest_common_word([fork], fork.alphabet) == ("a", "a")
    assert shortest_common_word([fork, fork], ("b", "a")) == ("a", "b")
    # the k-ary walk on denser automata (epsilon edges included), symbols ranked
    # in reverse declaration order; then an alphabet that omits "a", whose
    # edges are never walked, and one that names "c", which no automaton has
    nontrivial = ternary = 0
    for order in (("b", "a"), ("b",), ("c", "b", "a")):
        for _ in range(200):
            automata = [
                random_nfa(rng, max_states=8, edges_per_state=3)
                for _ in range(rng.randint(1, 3))
            ]
            common = frozenset.intersection(
                *(frozenset(v for v in enumerate_accepted(a, 6) if set(v) <= set(order))
                  for a in automata)
            )
            w = shortest_common_word(automata, order)
            least = min(
                common, key=lambda v: (len(v), [order.index(x) for x in v]), default=None
            )
            if least is not None:
                assert w == least
                nontrivial += len(automata) > 1 and len(least) > 0
                ternary += len(automata) == 3 and any(a.has_epsilon() for a in automata)
            elif w is not None:
                assert len(w) > 6 and set(w) <= set(order)
                assert all(accepts(a, w) for a in automata)
    assert nontrivial >= 10 and ternary >= 10


def test_is_empty():
    assert not is_empty(word_automaton(("a", "a", "b")))
    assert is_empty(hand_nfa(2, ("a",), {(1, "a", 1)}, 0, {1}))


def test_equivalent_basic():
    a_star = hand_nfa(1, ("a",), {(0, "a", 0)}, 0, {0})
    a_star_a = hand_nfa(2, ("a",), {(0, "a", 0), (0, "a", 1)}, 0, {1})
    assert equivalent(a_star, a_star)
    assert not equivalent(a_star, a_star_a)  # epsilon distinguishes


def test_equivalent_reflexive_symmetric():
    rng = random.Random(3)
    for _ in range(20):
        a, b = random_nfa(rng), random_nfa(rng)
        assert equivalent(a, a)
        assert equivalent(a, b) == equivalent(b, a)


def test_union_language():
    a = word_automaton(("a",))
    b = word_automaton(("b", "b"))
    u = union(a, b)
    assert enumerate_accepted(u, 3) == frozenset({("a",), ("b", "b")})


def test_trim_preserves_language():
    rng = random.Random(21)
    for _ in range(30):
        a = random_nfa(rng)
        assert enumerate_accepted(trim(a), 5) == enumerate_accepted(a, 5)


def test_eliminate_epsilon_preserves_language():
    rng = random.Random(22)
    for _ in range(30):
        a = random_nfa(rng)
        b = eliminate_epsilon(a)
        assert not b.has_epsilon()
        assert enumerate_accepted(b, 5) == enumerate_accepted(a, 5)


def test_to_dot_shape():
    dot = to_dot(word_automaton(("a",)))
    assert "doublecircle" in dot
    assert 'q0 -> q1 [label="a"]' in dot
    assert dot.startswith("digraph")


def test_to_dot_escapes_labels():
    # a terminal may be a backslash, and an automaton label any string; each
    # DOT string must still end at its own closing quote
    (g,) = parse_file('grammar G { start S; S -> "\\" S | "x"; }')
    assert '  q2 -> q2 [label="\\\\"];' in to_dot(nederhof(g)).splitlines()
    a = Nfa(2, ("\\", '"', 'a\\"b'), frozenset({(0, "\\", 1), (1, '"', 0), (0, 'a\\"b', 0)}), 0, frozenset({1}))
    edge = re.compile(r'  q\d+ -> q\d+ \[label="((?:[^"\\]|\\.)*)"\];')
    labels = [edge.fullmatch(line).group(1) for line in to_dot(a).splitlines() if "->" in line and "__start" not in line]
    assert [re.sub(r"\\(.)", r"\1", label) for label in labels] == ['a\\"b', "\\", '"']


def test_to_dot_quotes_a_name_only_when_it_is_no_dot_id():
    a = word_automaton(("a",))
    for plain in ("nfa", "C2_iter0", "_x9", "é_iter1", "12", "-3.5"):
        assert to_dot(a, plain).startswith(f"digraph {plain} {{\n")
    quoted = {"A'_iter0": '"A\'_iter0"', "node": '"node"', "Graph": '"Graph"',
              "1_iter0": '"1_iter0"', 'say "hi"\\': '"say \\"hi\\"\\\\"', "": '""'}
    for name, header in quoted.items():
        assert to_dot(a, name).startswith(f"digraph {header} {{\n")


def test_nfa_validation():
    # every check of Nfa(...), positionally and through a keyword rebuild:
    # values from outside come in there, and kernels build theirs without checks
    valid = Nfa(2, ("a",), frozenset({(0, "a", 1)}), 0, frozenset({1}))
    invalid = [
        ({"transitions": frozenset({(0, "b", 1)})}, "label 'b' not in alphabet"),
        ({"initial": 2}, "initial state out of range"),
        ({"initial": -1}, "initial state out of range"),
        ({"alphabet": ("a", "a")}, "alphabet symbols must be unique"),
        ({"alphabet": (None, "a")}, "alphabet symbols must be strings"),
        ({"alphabet": ("a", 1)}, "alphabet symbols must be strings"),
        ({"transitions": frozenset({(0, "a", 2)})}, "transition endpoint out of range"),
        ({"transitions": frozenset({(-1, None, 1)})}, "transition endpoint out of range"),
        ({"accepting": frozenset({2})}, "accepting state out of range"),
        ({"accepting": frozenset({-1})}, "accepting state out of range"),
    ]
    for change, message in invalid:
        with pytest.raises(ValueError, match=message):
            Nfa(*(change.get(name, getattr(valid, name)) for name in Nfa.__match_args__))
        with pytest.raises(ValueError, match=message):
            rebuild(valid, **change)


@st.composite
def nfa_pairs(draw):
    seed = draw(st.integers(min_value=0, max_value=10**9))
    rng = random.Random(seed)
    return random_nfa(rng), random_nfa(rng)


@given(nfa_pairs())
@settings(max_examples=60, deadline=None)
def test_boolean_structure(pair):
    a, b = pair
    inter = intersect(a, b)
    comp = complement(a, ("a", "b"))
    for w in words_upto(("a", "b"), 6):
        in_a, in_b = accepts(a, w), accepts(b, w)
        assert accepts(inter, w) == (in_a and in_b)
        assert accepts(comp, w) == (not in_a)


# --- values that record facts about themselves --------------------------------

MARKS = ("_rows",)


def _marks(a: Nfa) -> dict:
    return {k: v for k, v in vars(a).items() if k in MARKS}


def _fresh(a: Nfa) -> Nfa:
    """An equal value built anew, so it carries no marks."""
    return Nfa(a.num_states, a.alphabet, a.transitions, a.initial, a.accepting)


def _rows_of(a: Nfa) -> list[list[int]]:
    """The rows of an epsilon-free DFA, rebuilt from its transitions."""
    rows = [[-1] * len(a.alphabet) for _ in a.states]
    for q, x, r in a.transitions:
        c = a.alphabet.index(x)
        assert rows[q][c] == -1, "not a DFA"
        rows[q][c] = r
    return rows


def _sample_automata() -> list[Nfa]:
    """Random automata, the fixtures' Nederhof approximations (with epsilon
    edges) and their epsilon-free forms, each built anew."""
    rng = random.Random(31)
    out = [random_nfa(rng, max_states=6) for _ in range(60)]
    for path in sorted(FIXTURES.glob("*.cfg")):
        for g in load_fixture(path.name):
            approx = nederhof(g)
            out += [_fresh(approx), _fresh(eliminate_epsilon(approx))]
    return out


def _useful(a: Nfa) -> set[int]:
    """States on some path initial -> accepting, by a closure over all pairs."""
    reach = {(q, q) for q in a.states} | {(q, r) for q, _, r in a.transitions}
    while True:
        longer = reach | {(q, s) for q, r in reach for r2, s in reach if r == r2}
        if longer == reach:
            break
        reach = longer
    return {
        q for q in a.states
        if (a.initial, q) in reach and any((q, f) in reach for f in a.accepting)
    }


def test_trim_returns_a_trimmed_value_itself():
    for a in _sample_automata():
        t = trim(a)
        assert trim(t) is t
        assert trim(_fresh(t)) == t


def test_intersect_output_is_trimmed():
    rng = random.Random(32)
    samples = _sample_automata()
    for _ in range(80):
        a, b = rng.choice(samples), rng.choice(samples)
        p = intersect(a, b)
        assert trim(p) is p
        assert trim(_fresh(p)) == p


def test_trim_is_identity_exactly_without_useless_states():
    samples = _sample_automata()
    identities = 0
    for a in samples:
        # the initial state is kept even when the language is empty
        no_useless = (_useful(a) | {a.initial}) == set(a.states)
        t = trim(a)
        assert (t == a) == no_useless
        assert (t is a) == no_useless
        identities += no_useless
    assert 0 < identities < len(samples)


def test_marks_leave_equality_hash_pickle_and_copy_alone():
    # trim and has_epsilon read a value and record nothing on it; the one
    # mark, rows, stays on the value a kernel built and out of == and hash
    rng = random.Random(30)
    samples = _sample_automata()
    for a in samples + [complement(rng.choice(samples)) for _ in range(30)]:
        before, marks = _fresh(a), _marks(a)
        t = trim(a)
        t.has_epsilon()
        a.has_epsilon()
        assert _marks(a) == marks and _marks(t) == (marks if t is a else {})
        plain = _fresh(t)
        assert t == plain and hash(t) == hash(plain)
        assert a == before and hash(a) == hash(before)
        for clone in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
            assert clone == t and hash(clone) == hash(t)
            assert _marks(clone) == _marks(t)
            assert trim(clone) is clone


def test_replace_yields_an_unmarked_value():
    for a in _sample_automata():
        t = trim(a)
        t.has_epsilon()
        same = rebuild(t)
        assert same == t and _marks(same) == {}
        # a stale mark would hand back a value that is no longer trim
        emptied = rebuild(t, accepting=frozenset())
        assert _marks(emptied) == {}
        assert trim(emptied).num_states == 1


def _row_values() -> dict[str, list[Nfa]]:
    """Values of the kernels that record rows, by kernel name."""
    rng = random.Random(37)
    samples = _sample_automata()
    out: dict[str, list[Nfa]] = {}
    for a in samples:
        out.setdefault("complement", []).extend([complement(a), complement(a, ("c", "a"))])
        out.setdefault("determinize", []).append(determinize(a))
        out.setdefault("minimize", []).append(minimize(a))
    for a, b in [(rng.choice(samples), rng.choice(samples)) for _ in range(100)] + _nfa_pairs(rng, 100):
        out.setdefault("product", []).append(_product(a, b))
        out.setdefault("difference", []).extend([difference(a, b), difference(b, a)])
    return out


def test_recorded_rows_are_the_rows_of_the_transitions():
    for name, values in _row_values().items():
        for v in values:
            rows = vars(v)["_rows"]
            assert rows == _rows_of(v), name
            assert _dfa(v, v.alphabet) == (v, rows) and _dfa(v, v.alphabet)[1] is rows
    # rows built for a DFA that has none are handed out, not recorded
    for a in _dfas_and_products():
        plain = _fresh(a)
        assert _dfa(plain, plain.alphabet) == (plain, _rows_of(plain))
        assert "_rows" not in vars(plain)


def test_replace_drops_rows_while_pickle_and_copy_keep_them():
    for name, values in _row_values().items():
        for v in values:
            for clone in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
                assert clone == v and hash(clone) == hash(v)
                assert _marks(clone) == _marks(v) and "_rows" in _marks(clone), name
            assert _marks(rebuild(v)) == {}
            # stale rows would still walk the edges that were taken away
            emptied = rebuild(v, transitions=frozenset())
            assert _dfa(emptied, v.alphabet)[1] == [[-1] * len(v.alphabet)] * v.num_states
            assert shortest_common_word([emptied], v.alphabet) in (None, ())


def _eager_transitions(v: Nfa) -> frozenset:
    """The transitions that ``_from_rows`` built from a value's rows when it
    still built them at once."""
    rows = vars(v)["_rows"]
    return frozenset(
        (q, x, r) for q, row in enumerate(rows) for x, r in zip(v.alphabet, row) if r >= 0
    )


def test_kernel_values_are_stored_as_rows_alone():
    for values in _row_values().values():
        for v in values:
            check_stored_as_rows(v, _eager_transitions(v))


def test_sigma_star_is_stored_as_its_one_row():
    for alphabet in ((), ("a",), ("a", "b"), ("b", "a", "b")):
        v = sigma_star(alphabet)
        assert vars(v)["_rows"] == [[0] * len(set(alphabet))]
        check_stored_as_rows(v, frozenset((0, x, 0) for x in alphabet))


def test_walks_over_a_value_stored_as_rows_leave_its_transitions_unbuilt():
    # every walk reads the rows; each result equals the one over the value
    # rebuilt with its transitions
    rng = random.Random(46)
    for values in _row_values().values():
        for v in values[::3]:
            columns = tuple(rng.sample(v.alphabet, len(v.alphabet))) + ("z",)
            other = rng.choice(values)

            def walks(a):
                # a recorded row may be shorter than the columns: it ends early
                rows = [row + [-1] * (len(columns) - len(row)) for row in _dfa(a, columns)[1]]
                return (
                    trim(a), is_empty(a), complement(a, ("a", "b")), determinize(a), minimize(a),
                    rows, to_dot(a), union(a, a), intersect(a, other),
                    shortest_common_word([a, other], columns), intersects(AIBI1, a),
                )

            got = walks(v)
            assert "transitions" not in vars(v)
            assert got == walks(Nfa(v.num_states, v.alphabet, _eager_transitions(v), 0, v.accepting))


def _rows_over(a: Nfa, columns: tuple[str, ...]) -> list[list[int]]:
    """The rows of an epsilon-free automaton over ``columns``, rebuilt from
    its transitions: a symbol fills its first column, other labels are left
    out, and no column may have two targets."""
    rows = [[-1] * len(columns) for _ in a.states]
    for q, x, r in a.transitions:
        if x in columns:
            c = columns.index(x)
            assert rows[q][c] == -1, "not deterministic over the columns"
            rows[q][c] = r
    return rows


def test_dfa_hands_out_rows_over_any_columns():
    # columns that permute, omit, extend and repeat the alphabet's symbols,
    # for values with recorded rows, plain DFAs and NFAs
    rng = random.Random(45)
    with_rows = [v for values in _row_values().values() for v in values[::4]]
    plain = [_fresh(a) for a in _dfas_and_products()]
    nfas = [a for a in _sample_automata() if not _is_dfa(eliminate_epsilon(a))]
    handed = rebuilt = determinized = 0
    for v in with_rows + plain + nfas:
        alpha = v.alphabet
        shuffled = rng.sample(alpha, len(alpha))
        for columns in (
            alpha, alpha + ("z",), alpha + alpha[:1], tuple(shuffled), alpha[1:],
            ("z",) + alpha, alpha[::-1] + alpha,
        ):
            d, rows = _dfa(v, columns)
            assert not d.has_epsilon() and d.alphabet == alpha
            # a recorded row may be shorter than the columns: it ends early
            padded = [row + [-1] * (len(columns) - len(row)) for row in rows]
            assert padded == _rows_over(d, columns)
            recorded = vars(v).get("_rows")
            assert (rows is recorded) == (recorded is not None and columns[: len(alpha)] == alpha)
            handed += rows is recorded
            rebuilt += recorded is not None and rows is not recorded
            if d == determinize(v) != eliminate_epsilon(v):
                determinized += 1
            else:
                assert d in (v, eliminate_epsilon(v))
    assert handed >= 300 and rebuilt >= 300 and determinized >= 100


def test_has_epsilon_reads_rows_or_scans():
    a = hand_nfa(2, ("a",), {(0, None, 1), (1, "a", 1)}, 0, {1})
    assert a.has_epsilon() and _marks(a) == {}
    b = eliminate_epsilon(a)
    assert not b.has_epsilon() and _marks(b) == {}
    assert eliminate_epsilon(b) is b
    # a value with rows is an epsilon-free DFA: its transitions are not read
    c = complement(a)
    assert not c.has_epsilon() and not rebuild(c).has_epsilon()
    hollow = copy.copy(c)
    object.__setattr__(hollow, "transitions", None)
    assert not hollow.has_epsilon()


def test_intersect_and_complement_build_epsilon_free_values():
    rng = random.Random(33)
    samples = _sample_automata()
    for _ in range(60):
        a, b = rng.choice(samples), rng.choice(samples)
        for out in (intersect(a, b), complement(a, ("a", "b"))):
            assert not out.has_epsilon()
            assert all(x is not None for _, x, _ in out.transitions)
            assert eliminate_epsilon(out) is out
            plain = _fresh(out)
            assert out == plain and hash(out) == hash(plain) and _marks(plain) == {}
            for clone in (pickle.loads(pickle.dumps(out)), copy.copy(out), copy.deepcopy(out)):
                assert clone == out and hash(clone) == hash(out)
                assert _marks(clone) == _marks(out)
            assert _marks(rebuild(out)) == {}


def test_complement_recognizes_the_complement_with_a_sink():
    alphabet = ("a", "b")
    for a in _sample_automata():
        if set(a.alphabet) - set(alphabet):
            continue
        comp = complement(a, alphabet)
        assert is_empty(intersect(a, comp))
        assert equivalent(union(a, comp), SIGMA_STAR)
        assert equivalent(complement(comp, alphabet), a)
        for w in words_upto(alphabet, 5):
            assert accepts(comp, w) != accepts(a, w)
        # complete and deterministic: one edge per state and symbol
        assert sorted((q, x) for q, x, _ in comp.transitions) == [
            (q, x) for q in comp.states for x in alphabet
        ]
    # a finite language leaves a sink: an accepting state looping on every symbol
    comp = complement(word_automaton(("a",)), alphabet)
    assert comp.num_states == 3
    sinks = [q for q in comp.states if all((q, x, q) in comp.transitions for x in alphabet)]
    assert len(sinks) == 1 and sinks[0] in comp.accepting


# --- minimal canonical DFAs ---------------------------------------------------


def _random_dfa(rng: random.Random, max_states: int = 6) -> Nfa:
    """A partial DFA over {a, b}; some states may be unreachable or dead."""
    n = rng.randint(1, max_states)
    transitions = {
        (q, x, rng.randrange(n)) for q in range(n) for x in ("a", "b") if rng.random() < 0.75
    }
    return hand_nfa(n, ("a", "b"), transitions, 0, {q for q in range(n) if rng.random() < 0.5})


def _dfas_and_products() -> list[Nfa]:
    """Random DFAs, and the untrimmed products that ``difference`` and
    ``intersect`` build from them and from random NFAs."""
    rng = random.Random(34)
    out = []
    for _ in range(80):
        a, b = _random_dfa(rng), _random_dfa(rng)
        out += [a, _product(a, b), _product(a, complement(random_nfa(rng), ("a", "b")))]
    return out


def _renumbered(a: Nfa, rng: random.Random) -> Nfa:
    perm = list(a.states)
    rng.shuffle(perm)
    return Nfa(
        a.num_states,
        a.alphabet,
        frozenset((perm[q], x, perm[r]) for q, x, r in a.transitions),
        perm[a.initial],
        frozenset(perm[q] for q in a.accepting),
    )


def _is_dfa(a: Nfa) -> bool:
    return not a.has_epsilon() and len({(q, x) for q, x, _ in a.transitions}) == len(a.transitions)


def test_minimize_keeps_the_language():
    for a in _dfas_and_products():
        m = minimize(a)
        assert equivalent(m, a)
        assert enumerate_accepted(m, 6) == enumerate_accepted(a, 6)


def test_minimize_leaves_no_two_states_equivalent():
    samples = _dfas_and_products()
    empties = 0
    for a in samples:
        m = minimize(a)
        assert _is_dfa(m) and m.alphabet == a.alphabet
        if is_empty(m):
            empties += 1
            continue
        # trimmed and minimal: no state is dead, unreachable or equivalent to another
        assert equivalent_states(m) == []
        assert _useful(m) == set(m.states)
    assert 0 < empties < len(samples) / 2


def test_minimize_is_canonical():
    rng = random.Random(35)
    for a in _dfas_and_products():
        m = minimize(a)
        shuffled = minimize(_renumbered(a, rng))
        assert shuffled == m and to_dot(shuffled) == to_dot(m)
        # a larger DFA of the same language gives the same value too
        assert minimize(_product(a, SIGMA_STAR)) == m
        assert minimize(m) == m


def test_minimize_stops_at_a_discrete_partition():
    # a word over distinct letters: Moore's first round gives every state a
    # class of its own, and the partition must stay as that round left it
    word = tuple(f"x{i}" for i in range(40))
    a = word_automaton(word)
    m = minimize(a)
    assert m == a and to_dot(m) == to_dot(a)
    # with a tail of one repeated letter, the tail splits off one class per
    # round until the partition is discrete
    b = word_automaton(word + ("x0",) * 30)
    assert minimize(b) == b and to_dot(minimize(b)) == to_dot(b)


def test_minimize_records_the_rows_of_a_trimmed_value():
    for a in _dfas_and_products():
        m = minimize(a)
        assert _marks(m) == {"_rows": _rows_of(m)} and not m.has_epsilon()
        assert trim(m) is m and trim(_fresh(m)) == m


def test_minimize_determinizes_a_nondeterministic_value():
    # an NFA goes through the subset construction first, so it gets the same
    # minimal DFA as any other automaton of its language
    nfas = [a for a in _sample_automata() if not _is_dfa(eliminate_epsilon(a))]
    assert len(nfas) > 20
    for a in nfas:
        d = determinize(a)  # trimmed: the empty subset is no state
        assert _is_dfa(d) and equivalent(d, a) and trim(_fresh(d)) == d
        m = minimize(a)
        assert _is_dfa(m) and equivalent(m, a)
        assert m == minimize(d) == minimize(complement(complement(a)))
        assert is_empty(m) or equivalent_states(m) == []
        assert m.num_states <= d.num_states


def test_minimize_of_the_empty_language_is_one_state_without_edges():
    loops = hand_nfa(2, ("a", "b"), {(0, "a", 0), (0, "b", 1), (1, "a", 1)}, 0, set())
    unreachable = hand_nfa(3, ("a", "b"), {(0, "a", 1), (2, "b", 2)}, 0, {2})
    for a in (loops, unreachable, _product(A_STAR_B_STAR, complement(A_STAR_B_STAR))):
        assert is_empty(a)
        m = minimize(a)
        assert m == Nfa(1, a.alphabet, frozenset(), 0, frozenset())
        assert (m.num_states, m.accepting) == (trim(a).num_states, trim(a).accepting)


def test_difference_returns_the_minimal_dfa():
    rng = random.Random(36)
    for _ in range(60):
        a, b = _random_dfa(rng), random_nfa(rng)
        alphabet = ("a", "b")
        d = difference(a, b)
        assert d == minimize(_product(a, complement(b, alphabet)))
        assert d.num_states <= intersect(a, complement(b, alphabet)).num_states


def test_difference_is_a_function_of_values():
    # the engine hands one subtraction to every grammar with an equal
    # (approximation, generalization) pair, whether or not its operands
    # carry recorded rows
    rng = random.Random(38)
    values = [v for vs in _row_values().values() for v in vs]
    pairs = [(rng.choice(values), rng.choice(values)) for _ in range(150)]
    for _ in range(60):
        a, b = _random_dfa(rng), _random_dfa(rng)
        pairs.append(tuple(_from_rows(x.alphabet, _rows_of(x), x.accepting) for x in (a, b)))
    for a, b in pairs:
        assert "_rows" in vars(a) and "_rows" in vars(b)
        results = [
            difference(x, y)
            for x in (a, _fresh(a))
            for y in (b, rebuild(b))
        ]
        assert all(d == results[0] for d in results)
        assert len({to_dot(d) for d in results}) == 1
        assert all(vars(d)["_rows"] == vars(results[0])["_rows"] for d in results)


# --- the product walk ---------------------------------------------------------


def _nfa_pairs(rng: random.Random, count: int) -> list[tuple[Nfa, Nfa]]:
    """Pairs with epsilon edges, several targets per column, and alphabets
    that share only some symbols, so each operand has labels foreign to the
    other; every third first operand is a DFA."""
    alphabets = (("a", "b"), ("b", "c"), ("c", "a", "b"))
    return [
        (
            _random_dfa(rng)
            if i % 3 == 0
            else random_nfa(rng, rng.choice(alphabets), max_states=5, edges_per_state=3),
            random_nfa(rng, rng.choice(alphabets), max_states=5, edges_per_state=3),
        )
        for i in range(count)
    ]


def _padded(a: Nfa, rng: random.Random) -> Nfa:
    """``a`` with two unreachable states, one of them accepting, that lead
    anywhere, and two dead states that ``a``'s states lead into and that lead
    only to each other: the same language, and ``trim`` gives ``trim(a)``."""
    n = a.num_states
    lost, dead = (n, n + 1), (n + 2, n + 3)
    labels = a.alphabet + (None,)
    edges = set(a.transitions)
    for _ in range(2 * n):
        edges.add((rng.randrange(n), rng.choice(labels), rng.choice(dead)))
        edges.add((rng.choice(lost), rng.choice(labels), rng.randrange(n + 4)))
        edges.add((rng.choice(dead), rng.choice(labels), rng.choice(dead)))
    return Nfa(n + 4, a.alphabet, frozenset(edges), a.initial, a.accepting | {lost[0]})


def test_walks_answer_alike_on_an_automaton_and_its_trim():
    # the witness search and intersects walk their operands untrimmed
    rng = random.Random(44)
    samples = _sample_automata()
    samples += [complement(rng.choice(samples), ("a", "b")) for _ in range(40)]
    grammars = [random_cfg(rng) for _ in range(20)]
    found = met = 0
    for _ in range(200):
        a, b = rng.choice(samples), rng.choice(samples)
        pa, pb = _padded(a, rng), _padded(b, rng)
        assert trim(pa) == trim(a) != pa
        order = _merge_alphabets(a.alphabet, b.alphabet)[::-1]
        w = shortest_common_word([pa, pb], order)
        assert w == shortest_common_word([trim(a), trim(b)], order)
        assert shortest_common_word([a, pa], a.alphabet) == shortest_common_word([trim(a)], a.alphabet)
        g = rng.choice(grammars)
        for x, px in ((a, pa), (b, pb)):
            meets = intersects(g, px)
            assert meets == intersects(g, x) == intersects(g, trim(x))
            met += meets
        found += w is not None
    assert 20 <= found <= 180 and 20 <= met <= 380


def test_product_intersect_and_difference_equal_the_reference_product():
    # the walk reads an epsilon-free DFA as it is and determinizes any other
    # operand, so its product is the plain product of those DFAs
    determinized = 0
    for a, b in _nfa_pairs(random.Random(38), 300):
        joint = _merge_alphabets(a.alphabet, b.alphabet)
        da, db = _dfa(a, joint)[0], _dfa(b, joint)[0]
        for x, dx in ((a, da), (b, db)):
            if _is_dfa(eliminate_epsilon(x)):
                assert dx == eliminate_epsilon(x)
            else:
                assert dx == determinize(x)
                determinized += 1
        reference = reference_product(da, db)
        assert _is_dfa(reference)
        assert _product(a, b) == reference
        meet = intersect(a, b)
        assert meet == trim(reference)
        # trim keeps the product's rows only when it returns the product itself
        assert _marks(meet) in ({}, {"_rows": _rows_of(meet)})
        d = difference(a, b)
        assert d == minimize(reference_product(da, complement(b, reference.alphabet)))
        assert _marks(d) == {"_rows": _rows_of(d)}
    assert determinized >= 100


def test_nfa_operands_keep_their_languages():
    # brute force on words up to length 5: the walks see a determinized NFA,
    # whose language is the NFA's own
    rng = random.Random(39)
    nfa_operands = nonempty = 0
    for a, b in _nfa_pairs(rng, 200):
        nfa_operands += not _is_dfa(eliminate_epsilon(a)) or not _is_dfa(eliminate_epsilon(b))
        joint = _merge_alphabets(a.alphabet, b.alphabet)
        in_a, in_b = enumerate_accepted(a, 5), enumerate_accepted(b, 5)
        assert enumerate_accepted(determinize(a), 5) == in_a
        assert enumerate_accepted(intersect(a, b), 5) == in_a & in_b
        assert enumerate_accepted(difference(a, b), 5) == in_a - in_b
        order = joint[::-1]
        w = shortest_common_word([a, b], order)
        assert w == shortest_common_word([determinize(a), determinize(b)], order)
        least = min(in_a & in_b, key=lambda v: (len(v), [order.index(x) for x in v]), default=None)
        if least is not None:
            assert w == least
            nonempty += 1
        elif w is not None:
            assert len(w) > 5 and accepts(a, w) and accepts(b, w)
    assert nfa_operands >= 100 and nonempty >= 30


# --- kernel outputs are valid values -----------------------------------------


def _kernel_outputs(rng: random.Random) -> tuple[dict[str, list[Nfa]], int, int]:
    """Outputs of every kernel that builds its values without the checks of
    ``Nfa(...)``, by kernel name, and how many differences read their first
    operand as it was and how many determinized it."""
    samples = _sample_automata()
    out: dict[str, list[Nfa]] = {}

    def put(name: str, value: Nfa) -> None:
        out.setdefault(name, []).append(value)

    for a in samples:
        put("trim", trim(a))
        put("eliminate_epsilon", eliminate_epsilon(a))
        put("complement", complement(a, ("c", "a")))
        put("minimize", minimize(complement(a)))
        put("minimize", minimize(a))
        put("determinize", determinize(a))
    for _ in range(100):
        a, b = rng.choice(samples), rng.choice(samples)
        put("intersect", intersect(a, b))
        put("union", union(a, b, rng.choice(samples)))
    put("union", union())
    deterministic = nondeterministic = 0
    for a, b in _nfa_pairs(rng, 300):
        put("difference", difference(a, b))
        if _is_dfa(eliminate_epsilon(a)):
            deterministic += 1
        else:
            nondeterministic += 1
    for _ in range(60):
        word = tuple(rng.choice("abc") for _ in range(rng.randint(0, 6)))
        put("word_automaton", word_automaton(word))
        ranges: set[tuple[int, int]] = set()
        for _ in range(4):
            r = tuple(sorted(rng.sample(range(len(word) + 1), 2))) if word else (0, 0)
            if r[0] < r[1] and not any(_crosses(r, kept) for kept in ranges):
                ranges.add(r)
        put("gen_language", gen_language(StarGeneralization(word, frozenset(ranges))))
    grammars = [g for path in sorted(FIXTURES.glob("*.cfg")) for g in load_fixture(path.name)]
    grammars += [random_cfg(rng) for _ in range(30)]
    for g in grammars:
        put("nederhof", nederhof(g))
        put("sigma_star", sigma_star(g.terminals))
        outside = [w for w in words_upto(g.terminals[:2], 2) if not in_language(g, w)]
        for w in outside[:2]:
            put("PrestarSession.automaton", eps_generalize(w, g))
            session = PrestarSession(g, word_automaton(w))
            for batch in _eps_candidates(w)[::2]:
                session.try_add(batch)
            put("PrestarSession.automaton", session.automaton())
            put("max_star_generalize", max_star_generalize(g, w))
            put("max_eps_generalize", max_eps_generalize(g, w))
    return out, deterministic, nondeterministic


def test_kernel_outputs_pass_public_validation():
    # kernels number their states themselves and skip the checks of Nfa(...);
    # rebuilding each output through them must neither raise nor change it
    outputs, deterministic, nondeterministic = _kernel_outputs(random.Random(43))
    for name, values in outputs.items():
        for v in values:
            rebuilt = Nfa(v.num_states, v.alphabet, v.transitions, v.initial, v.accepting)
            assert rebuilt == v, name
    assert deterministic >= 50 and nondeterministic >= 50
    assert all(any(v.transitions for v in values) for values in outputs.values())


_HASH_SEED_SCRIPT = """
import random
from cflsep.nfa import (
    Nfa, complement, determinize, difference, eliminate_epsilon, intersect, minimize,
    shortest_common_word, to_dot,
)

rng = random.Random(41)


def nfa(n, alphabet):
    labels = alphabet + (None,)
    edges = {(rng.randrange(n), rng.choice(labels), rng.randrange(n)) for _ in range(4 * n)}
    return Nfa(n, alphabet, frozenset(edges), 0, frozenset(range(0, n, 3)))


for _ in range(10):
    a, b = nfa(8, ("a", "b")), nfa(6, ("b", "c"))
    print(to_dot(intersect(a, b)))
    print(to_dot(difference(a, b)))
    print(to_dot(difference(difference(b, a), a)))
    print(shortest_common_word([a, b, a], ("c", "b", "a")))
    for one in (complement(a), determinize(a), minimize(a), eliminate_epsilon(a)):
        print(to_dot(one))
"""


def test_library_results_do_not_depend_on_the_hash_seed():
    # several targets on one (state, symbol): their order must come from the
    # state numbers, not from the hash-seeded iteration order of the edges
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("digraph") == 70
