"""Acceptance gate: one test per release criterion, one printed verdict line
per criterion (run with ``pytest -v -s tests/test_acceptance.py``)."""

import random
import time

from cflsep.approximation import nederhof, sigma_star
from cflsep.engine import Config, Overlap, Separable, check_disjoint
from cflsep.grammar import normalize
from cflsep.nfa import difference, is_empty, word_automaton
from cflsep.prestar import PrestarSession, _Saturator, in_language, intersects
from cflsep.refinement import (
    eps_generalize,
    gen_language,
    max_eps_generalize,
    max_star_generalize,
    star_generalize,
)

from oracles import (
    accepts,
    bounded_language,
    cat,
    contraction_matches_generalization,
    enumerate_accepted,
    enumerate_words,
    equivalent,
    lit,
    prestar_triples,
    regex_to_nfa,
    star,
    star_contractions,
)
from support import (
    AIBI1,
    PALINDROME,
    grammar,
    hand_nfa,
    load_fixture,
    random_cfg,
    random_nfa,
    truncate,
)

A_STAR_B_STAR = hand_nfa(
    2, ("a", "b"), {(0, "a", 0), (0, "b", 1), (1, "b", 1)}, 0, {0, 1}
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def test_criterion_1_star_generalization_pipeline():
    start = time.monotonic()
    gen = gen_language(star_generalize(("a", "a", "b"), AIBI1))
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
    ok = equivalent(refined, expected)
    elapsed = time.monotonic() - start
    report("1 star-generalization pipeline", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_epsilon_generalization():
    start = time.monotonic()
    eps_gen = eps_generalize(("a", "a", "b"), AIBI1)
    expected = regex_to_nfa(
        cat(star(cat(star(lit("a")), lit("a"), lit("b"))), star(lit("a")))
    )
    star_gen = gen_language(star_generalize(("a", "a", "b"), AIBI1))
    ok = equivalent(eps_gen, expected) and equivalent(eps_gen, star_gen)
    elapsed = time.monotonic() - start
    report("2 epsilon-generalization", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_3_nederhof_approximation():
    start = time.monotonic()
    g = grammar('grammar G { start A; A -> "a" B "b" | "c"; B -> A; }')
    expected = regex_to_nfa(cat(star(lit("a")), lit("c"), star(lit("b"))))
    ok = equivalent(nederhof(g), expected)
    elapsed = time.monotonic() - start
    report("3 nederhof approximation", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_4_prestar_palindrome():
    gn, abba = normalize(PALINDROME), word_automaton(("a", "b", "b", "a"))
    start = time.monotonic()
    sat = _Saturator(gn, abba)
    sat.saturate()
    elapsed = time.monotonic() - start
    ok = (0, "A", 4) in sat.journal and set(sat.journal) == prestar_triples(gn, abba)
    report("4 pre-star palindrome", ok and elapsed < 1.0, f"{elapsed:.3f}s")


TABLE_1C = {
    "c2c4.cfg": "separable",
    "c3c4.cfg": "separable",
    "c5c6.cfg": "separable",
    "c1c7.cfg": "overlap",
    "c1c8.cfg": "overlap",
    "c2c3.cfg": "overlap",
    "c5c7.cfg": "overlap",
    "c5c8.cfg": "overlap",
    "c6c7.cfg": "overlap",
    "c6c8.cfg": "overlap",
    "c7c8.cfg": "overlap",
}


def test_criterion_5_table_verdicts():
    failures = []
    for name, expected in sorted(TABLE_1C.items()):
        grammars = load_fixture(name)
        before = len(failures)
        verdict = check_disjoint(
            grammars,
            Config(abstraction="nederhof", strategy="greedy-star"),
            deadline=time.monotonic() + 60.0,
        )
        if expected == "separable":
            if not isinstance(verdict, Separable):
                failures.append(f"{name}: expected separable, got {verdict}")
        else:
            if not isinstance(verdict, Overlap):
                failures.append(f"{name}: expected overlap, got {verdict}")
            elif not all(in_language(g, verdict.witness) for g in grammars):
                failures.append(f"{name}: witness not in both languages")
        status = "ok" if len(failures) == before else "bad"
        print(
            f"  table-pair {name}: {type(verdict).__name__} "
            f"after {verdict.iterations} refinements [{status}]"
        )
    report("5 table verdicts", not failures, "; ".join(failures))


def test_criterion_6_separation_with_coarsest_abstraction():
    start = time.monotonic()
    g1, g2 = load_fixture("g1g2.cfg")
    verdict = check_disjoint(
        [g1, g2],
        Config(abstraction="sigma-star", strategy="greedy-eps", max_refinements=50),
    )
    elapsed = time.monotonic() - start
    ok = isinstance(verdict, Separable) and verdict.iterations <= 50 and elapsed < 10.0
    report(
        "6 sigma-star separation",
        ok,
        f"{type(verdict).__name__} after {verdict.iterations} refinements, {elapsed:.2f}s",
    )


def test_criterion_7_shared_memory_program():
    start = time.monotonic()
    grammars = load_fixture("sharedmem.cfg")
    verdict = check_disjoint(
        grammars, Config(abstraction="nederhof", strategy="greedy-eps")
    )
    elapsed = time.monotonic() - start
    ok = isinstance(verdict, Separable) and elapsed < 60.0
    report(
        "7 shared-memory safety",
        ok,
        f"{type(verdict).__name__} after {verdict.iterations} refinements, {elapsed:.2f}s",
    )


# --- criterion 8: randomized property suites ---------------------------------


def _random_outside_witness(rng, g, max_len=3):
    for _ in range(20):
        w = tuple(rng.choice(g.terminals) for _ in range(rng.randint(0, max_len)))
        if not in_language(g, w):
            return w
    return None


def _suite_a_b_c(rng, cases):
    """Refinement soundness, progress, and the greedy candidate budget."""
    failures = []
    tested = 0
    while tested < cases:
        g = random_cfg(rng)
        w = _random_outside_witness(rng, g)
        if w is None:
            continue
        tested += 1
        use_star = tested % 2 == 0
        approx = nederhof(g) if tested % 3 else sigma_star(g.terminals)

        # both generalizers try each candidate as one batch on their session
        calls = {"n": 0}
        real_try = PrestarSession.try_add

        def counting_try(self, batch):
            calls["n"] += 1
            return real_try(self, batch)

        PrestarSession.try_add = counting_try
        try:
            gen = gen_language(star_generalize(w, g)) if use_star else eps_generalize(w, g)
        finally:
            PrestarSession.try_add = real_try
        budget = len(w) * (len(w) + 1) // (2 if use_star else 1)

        if calls["n"] > budget:
            failures.append(f"candidate budget exceeded: {calls['n']} > {budget}")
        if w and not calls["n"]:
            failures.append(f"no candidate of {w} reached the session")
        refined = difference(approx, gen)
        if accepts(refined, w):
            failures.append(f"progress violated for witness {w}")
        for word in enumerate_words(g, 7):
            if accepts(approx, word) and not accepts(refined, word):
                failures.append(f"soundness violated: lost {word}")
                break
    return failures


def _suite_d(rng, cases):
    """Star-contraction: finiteness, containment, covering at bound 6."""
    from test_oracles import random_union_free

    failures = []
    for _ in range(cases):
        e = random_union_free(rng, 3)
        members = star_contractions(e)
        whole = bounded_language(e, 6)
        covered = frozenset()
        for m in members:
            lang = bounded_language(m, 6)
            if not lang <= whole:
                failures.append(f"containment violated for {m!r} in {e!r}")
                break
            covered |= lang
        if covered != whole:
            failures.append(f"covering violated for {e!r}")
    return failures


def _suite_e(rng, cases):
    """Contraction meets generalization for every word of a union-free e."""
    from test_oracles import random_union_free

    failures = []
    tested = 0
    while tested < cases:
        e = random_union_free(rng, 3)
        words = sorted(w for w in bounded_language(e, 4) if len(w) <= 4)
        if not words:
            continue
        tested += 1
        w = rng.choice(words)
        if not contraction_matches_generalization(e, w):
            failures.append(f"no common member for {e!r} and {w}")
    return failures


def _suite_f(rng, cases):
    """Saturation-based intersection agrees with brute-force enumeration:
    exact biconditional on the length-truncated automaton, soundness
    direction on the full one."""
    failures = []
    for _ in range(cases):
        g = random_cfg(rng)
        a = random_nfa(rng)
        oracle = bool(enumerate_accepted(a, 5) & enumerate_words(g, 5))
        if intersects(g, truncate(a, 5)) != oracle:
            failures.append("bounded intersection disagrees with brute force")
        if oracle and not intersects(g, a):
            failures.append("missed a common word on the full automaton")
    return failures


def _suite_g(rng, cases):
    """Maximum generalizations avoid the language and contain the greedy one."""
    failures = []
    tested = 0
    while tested < cases:
        g = random_cfg(rng)
        w = _random_outside_witness(rng, g, max_len=2 + tested % 2)
        if w is None:
            continue
        tested += 1
        if tested % 2:
            maximal = max_star_generalize(g, w)
            greedy = gen_language(star_generalize(w, g))
        else:
            maximal = max_eps_generalize(g, w)
            greedy = eps_generalize(w, g)
        if intersects(g, maximal):
            failures.append(f"maximal generalization meets the language for {w}")
        if not is_empty(difference(greedy, maximal)):
            failures.append(f"greedy result not contained for {w}")
    return failures


def test_criterion_8_property_suites():
    start = time.monotonic()
    suites = [
        ("abc refinement soundness+progress+budget", _suite_a_b_c, 300),
        ("d star-contraction proposition", _suite_d, 300),
        ("e contraction-meets-generalization", _suite_e, 300),
        ("f saturation vs brute force", _suite_f, 300),
        ("g maximum generalizations", _suite_g, 300),
    ]
    all_failures = []
    for index, (label, suite, cases) in enumerate(suites):
        rng = random.Random(1000 + index)
        failures = suite(rng, cases)
        print(f"  suite {label}: {cases} cases, {len(failures)} failures")
        all_failures.extend(f"{label}: {msg}" for msg in failures[:3])
    elapsed = time.monotonic() - start
    ok = not all_failures and elapsed < 60.0
    report("8 property suites", ok, f"{elapsed:.1f}s; " + "; ".join(all_failures))
