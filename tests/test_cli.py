import contextlib
import io
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cflsep.cli as cli
from cflsep.cli import (
    EXIT_INTERNAL,
    EXIT_OVERLAP,
    EXIT_SEPARABLE,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    _validate_verdict,
    main,
)
from cflsep.engine import Overlap, Separable
from cflsep.grammar import Cfg, Production, nt, t
from cflsep.grammar_io import ParseError, _error, _tokenize, parse_file, parse_named
from cflsep.nfa import Nfa, difference, word_automaton

from oracles import enumerate_words, reference_tokens
from support import DEEP_CHAIN, FIXTURES, LONG_RULE, NAME_CLASH, grammar, random_cfg, render


# --- parsing ------------------------------------------------------------------


def test_parse_marked_palindrome_block():
    text = 'grammar C3 { start S; S -> "a" S "a" | "a" "c" "a"; }'
    (cfg,) = parse_file(text)
    assert cfg.variables == ("S",)
    assert cfg.terminals == ("a", "c")
    assert len(cfg.productions) == 2


def test_parse_g1g2_fixture():
    grammars = parse_named((FIXTURES / "g1g2.cfg").read_text())
    assert [name for name, _ in grammars] == ["G1", "G2"]
    for _, cfg in grammars:
        assert len(cfg.variables) == 3


def test_parse_empty_file():
    with pytest.raises(ParseError) as err:
        parse_file("   \n# nothing here\n")
    assert "no grammars" in str(err.value)
    with pytest.raises(ParseError, match="no grammars in file"):
        parse_named("\n")


def test_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_file('grammar G {\n start S\n S -> "a"; }')
    assert "line 3" in str(err.value)


def test_parse_undeclared_nonterminal():
    with pytest.raises(ParseError) as err:
        parse_file('grammar G { start S; S -> "a" T; }')
    assert "undeclared" in str(err.value)
    assert "T" in str(err.value)


def test_parse_duplicate_grammar_name():
    text = 'grammar G { start S; S -> "a"; } grammar G { start S; S -> "b"; }'
    with pytest.raises(ParseError) as err:
        parse_file(text)
    assert "duplicate" in str(err.value)


def test_grammar_level_errors_point_at_the_grammar_name():
    # the duplicate name and the Cfg rejection are found after the block's
    # "}", but they are reported at the name token; the other rows pin where
    # the parser and the tokenizer report, and which error wins: a syntax
    # error over a later empty terminal, the first of an empty terminal and
    # an undeclared nonterminal, an unexpected character over an earlier
    # syntax error, and a quote left open, on its line or up to a newline,
    # as an unterminated terminal string
    duplicate = 'grammar A { start S; S -> "a"; }\n\n  grammar A {\n start S; S -> "b";\n}\n'
    overlap = '# a terminal spelled like a nonterminal\n grammar G { start S; S -> "S"; }\n'
    for text, message, line, column in [
        (duplicate, "duplicate grammar name 'A'", 3, 11),
        (overlap, "terminal/nonterminal namespaces overlap: ['S']", 2, 10),
        ('grammar G {\r\n  start S\r\n  S -> "a";\r\n}\r\n', "expected ';', found 'S'", 3, 3),
        ('grammar G {\n  start S;\n  S -> "" S |', "expected symbol, '|' or ';', found 'end of file'", 3, 14),
        ('grammar G { start S;\n  S -> "a" | "" U;\n}\n', "empty terminal string", 2, 14),
        ('grammar G { start S;\n  S -> "a" | "b" T "a";\n  T -> U "";\n}\n', "undeclared nonterminal 'U'", 3, 8),
        ('grammar G {\n\tstart S\n\tS -> "a" @;\n}\n', "unexpected character '@'", 3, 11),
        ('grammar G { start S; S -> "a ; }', "unterminated terminal string", 1, 27),
        ('grammar G { start S;\n  S -> "a\n" | "b"; }\n', "unterminated terminal string", 2, 8),
        ("# only a comment\n\n# and a trailing one", "no grammars in file", 3, 21),
    ]:
        with pytest.raises(ParseError) as err:
            parse_named(text)
        assert str(err.value) == f"{message} (line {line}, column {column})"
        assert (err.value.line, err.value.column) == (line, column)


def test_parse_multichar_terminals():
    (cfg,) = parse_file('grammar G { start S; S -> "r_x_0" S | "w_y_1"; }')
    assert cfg.terminals == ("r_x_0", "w_y_1")


def test_parse_epsilon_alternatives():
    (cfg,) = parse_file('grammar G { start S; S -> "a" S | ; }')
    assert tuple(len(p.rhs) for p in cfg.productions) == (2, 0)


def test_render_round_trip_fixture_languages():
    # sharedmem's loop-heavy grammars explode at depth 5, so stop at 3 there
    for name, depth in [("c2.cfg", 5), ("c7.cfg", 5), ("sharedmem.cfg", 3)]:
        grammars = parse_file((FIXTURES / name).read_text())
        reparsed = parse_file(render(grammars))
        assert len(reparsed) == len(grammars)
        for before, after in zip(grammars, reparsed):
            assert enumerate_words(before, depth) == enumerate_words(after, depth)


def test_render_round_trip_random():
    rng = random.Random(404)
    for _ in range(25):
        g = random_cfg(rng)
        (back,) = parse_file(render([g]))
        assert enumerate_words(g, 6) == enumerate_words(back, 6)


_TERMINALS = ("a", "b", "ab", "x_1", "if")


@st.composite
def cfgs(draw):
    # some variables may get no production; they derive no word
    variables = ("S", "A", "B", "C")[: draw(st.integers(min_value=1, max_value=4))]
    symbol = st.sampled_from(_TERMINALS).map(t) | st.sampled_from(variables).map(nt)
    production = st.builds(
        Production, st.sampled_from(variables), st.lists(symbol, max_size=3).map(tuple)
    )
    productions = draw(st.lists(production, max_size=6))
    return Cfg(variables, _TERMINALS, tuple(productions), "S")


@st.composite
def named_cfgs(draw):
    names = draw(
        st.lists(
            st.from_regex(r"[A-Za-z_][A-Za-z0-9_']{0,5}", fullmatch=True),
            min_size=1, max_size=3, unique=True,
        )
    )
    return names, [draw(cfgs()) for _ in names]


@given(named_cfgs())
@settings(max_examples=80, deadline=None)
def test_render_parses_back_to_the_same_names_and_languages(named):
    names, grammars = named
    back = parse_named(render(grammars, names))
    assert [name for name, _ in back] == names
    for g, (_, h) in zip(grammars, back):
        assert enumerate_words(g, 4) == enumerate_words(h, 4)


_SOUP = (
    "grammar", "start", "{", "}", ";", "->", "|", '"a"', '"S"', '""', "S", "G", "#", "\n",
    "\t", "\r\n", "@", "é", '"a', "# c\n",
)


@given(st.lists(st.sampled_from(_SOUP), max_size=24))
@settings(max_examples=100, deadline=None)
def test_parse_token_soup_raises_only_parse_errors(tokens):
    # the tokens and error positions agree with the line/column walker of
    # the oracles, and an unexpected character is reported before any
    # parser error
    text = " ".join(["grammar", *tokens])
    try:
        expected = reference_tokens(text)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            parse_named(text)
        assert (str(got.value), got.value.line, got.value.column) == (str(err), err.line, err.column)
        return
    positions = []
    for kind, value, offset in _tokenize(text):
        at = _error(text, "", offset)
        positions.append((kind, value, at.line, at.column))
    assert positions == expected
    try:
        parse_named(text)
    except ParseError:
        pass


# --- command-line entry -------------------------------------------------------


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def test_main_separable(capsys):
    code = main([fixture("g1g2.cfg"), "--abstraction", "sigma-star", "--refine", "greedy-eps"])
    out = capsys.readouterr().out
    assert code == EXIT_SEPARABLE
    assert out.splitlines()[0] == "VERDICT: SEPARABLE"
    assert out.splitlines()[1].startswith("iterations=")


def test_main_overlap_with_witness(capsys):
    code = main([fixture("c2c3.cfg"), "--validate"])
    out = capsys.readouterr().out
    assert code == EXIT_OVERLAP
    assert out.splitlines()[0] == 'VERDICT: OVERLAP witness="a c a"'


def test_python_dash_m_cflsep_runs_the_command_line():
    src = str(Path(__file__).resolve().parent.parent / "src")
    run = subprocess.run(
        [sys.executable, "-m", "cflsep", fixture("c2c3.cfg")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == EXIT_OVERLAP, run.stderr
    assert run.stdout.splitlines() == ['VERDICT: OVERLAP witness="a c a"', "iterations=0"]


def test_readme_library_example_runs():
    # the fenced python block under "## Library" in README.md, run from the repo root
    root = Path(__file__).resolve().parent.parent
    section = (root / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    run = subprocess.run(
        [sys.executable, "-c", code], cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")), capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("Separable(")


def test_every_option_has_help():
    # --help describes every argument and option, not only its name
    assert [a.dest for a in cli.build_parser()._actions if not a.help] == []


def test_main_missing_file(capsys):
    code = main(["no-such-file.cfg"])
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_main_undecodable_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b'grammar A { start S; S -> "\xe9"; }\n')
    assert main([str(path)]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_main_single_grammar_is_usage_error(capsys):
    code = main([fixture("c1.cfg")])
    assert code == EXIT_USAGE


def test_main_bad_flag(capsys):
    code = main([fixture("c2c3.cfg"), "--abstraction", "bogus"])
    assert code == EXIT_USAGE


def test_main_multiple_files(capsys):
    code = main([fixture("c1.cfg"), fixture("c7.cfg")])
    out = capsys.readouterr().out
    assert code == EXIT_OVERLAP
    assert 'witness=""' in out  # the empty word is in both


@pytest.mark.parametrize("text", [LONG_RULE, DEEP_CHAIN], ids=["long-rule", "deep-chain"])
def test_main_long_and_deep_rules_exit_separable(text, tmp_path, capsys):
    path = tmp_path / "deep.cfg"
    path.write_text(text + '\ngrammar B { start T; T -> "b"; }\n')
    code = main([str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_SEPARABLE
    assert out.splitlines() == ["VERDICT: SEPARABLE", "iterations=0"]


def test_main_timeout(capsys):
    code = main([fixture("c2c4.cfg"), "--timeout", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_UNKNOWN
    assert "VERDICT: UNKNOWN reason=timeout" in out


@pytest.mark.parametrize("seconds", ["nan", "-1", "-inf"])
def test_main_rejects_timeout_that_is_no_bound(seconds, capsys):
    # NaN compares false with every clock reading, so it would remove the bound
    assert main([fixture("c2c3.cfg"), "--timeout", seconds]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_main_dump_approx(tmp_path, capsys):
    code = main([fixture("c2c4.cfg"), "--dump-approx", str(tmp_path)])
    assert code == EXIT_SEPARABLE
    dots = sorted(p.name for p in tmp_path.glob("*.dot"))
    assert "C2-iter0.dot" in dots
    assert "C4-iter0.dot" in dots
    body = (tmp_path / dots[0]).read_text()
    assert body.startswith("digraph")


def test_main_dump_approx_quotes_a_graph_name_that_is_no_dot_id(tmp_path, capsys):
    # identifiers may contain "'", which an unquoted DOT ID may not
    path = tmp_path / "primes.cfg"
    path.write_text(
        "grammar A' { start S; S -> \"a\" S \"a\" | \"c\"; }\n"
        "grammar B { start S; S -> \"a\" S \"b\" | \"c\" \"b\"; }\n",
        encoding="utf-8",
    )
    out = tmp_path / "dots"
    assert main([str(path), "--dump-approx", str(out)]) == EXIT_SEPARABLE
    capsys.readouterr()
    header = re.compile(r'digraph ("(?:[^"\\]|\\.)*"|[A-Za-z_][A-Za-z_0-9]*) \{')
    first_lines = {p.name: p.read_text(encoding="utf-8").splitlines()[0] for p in out.glob("*.dot")}
    assert first_lines["A'-iter0.dot"] == 'digraph "A\'_iter0" {'
    assert first_lines["B-iter0.dot"] == "digraph B_iter0 {"
    assert all(header.fullmatch(line) for line in first_lines.values())


def test_main_dump_approx_unwritable_is_usage_error(tmp_path, capsys):
    # a regular file where the directory should be, then a directory where a
    # dump file should be: neither may look like an OVERLAP verdict (exit 1)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([fixture("c5c6.cfg"), "--dump-approx", str(blocker)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    (tmp_path / "dir" / "C5-iter0.dot").mkdir(parents=True)
    assert main([fixture("c5c6.cfg"), "--dump-approx", str(tmp_path / "dir")]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_main_dump_approx_is_independent_of_hash_seed(tmp_path):
    # c5c8's nederhof approximations are products; their state numbers must
    # not follow the iteration order of hash-seeded successor sets
    src = str(Path(__file__).resolve().parent.parent / "src")
    dumps = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-m", "cflsep.cli", fixture("c5c8.cfg"), "--dump-approx", str(out)],
            env=env, capture_output=True, timeout=60,
        )
        assert run.returncode == EXIT_OVERLAP
        dumps.append({p.name: p.read_text() for p in sorted(out.glob("*.dot"))})
    assert dumps[0] == dumps[1]
    assert "C8-iter2.dot" in dumps[0]


def test_main_validate_passes_on_separable(capsys):
    code = main([fixture("c3c4.cfg"), "--validate"])
    assert code == EXIT_SEPARABLE


def test_main_validate_catches_approximation_missing_a_long_word(tmp_path, monkeypatch, capsys):
    # a^n b^n's approximation misses only aaabbb, a word of length 6
    path = tmp_path / "pair.cfg"
    path.write_text(
        'grammar AnBn { start S; S -> "a" S "b" | ; }\n'
        'grammar Six { start S; S -> "a" "a" "a" "b" "b" "b"; }\n'
    )
    six = word_automaton(("a", "a", "a", "b", "b", "b"))
    sigma = Nfa(1, ("a", "b"), frozenset({(0, "a", 0), (0, "b", 0)}), 0, frozenset({0}))
    bogus = Separable(approximations=(difference(sigma, six), six), iterations=0)
    monkeypatch.setattr(cli, "check_disjoint", lambda *args, **kwargs: bogus)
    code = main([str(path), "--validate"])
    assert code == EXIT_INTERNAL
    assert "grammar #1" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", ["greedy-star", "greedy-eps"])
def test_main_validate_accepts_terminal_spelled_like_a_nonterminal(strategy, tmp_path, capsys):
    path = tmp_path / "clash.cfg"
    path.write_text(NAME_CLASH)
    code = main([str(path), "--validate", "--abstraction", "sigma-star", "--refine", strategy])
    assert code == EXIT_SEPARABLE
    assert capsys.readouterr().out.splitlines()[0] == "VERDICT: SEPARABLE"


def _run_main(text: str, *flags: str) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.cfg"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([str(path), *flags])
    return code, out.getvalue()


@st.composite
def grammar_files(draw):
    seeds = draw(st.lists(st.integers(min_value=0, max_value=10**9), min_size=2, max_size=3))
    grammars = [random_cfg(random.Random(seed)) for seed in seeds]
    clash = draw(st.none() | st.integers(min_value=0, max_value=10**9))
    if clash is not None:
        # terminals spelled like the other grammars' nonterminals
        grammars.append(random_cfg(random.Random(clash), ("S", "A", "B"), ("T", "U", "V")))
    return render(grammars)


@given(
    grammar_files(),
    st.sampled_from(["sigma-star", "nederhof"]),
    st.sampled_from(["greedy-star", "greedy-eps"]),
)
@settings(max_examples=30, deadline=None)
def test_main_exit_code_contract_on_random_grammars(text, abstraction, strategy):
    code, out = _run_main(
        text, "--validate", "--max-refinements", "3", "--timeout", "5",
        "--abstraction", abstraction, "--refine", strategy,
    )
    assert code in (EXIT_SEPARABLE, EXIT_OVERLAP, EXIT_UNKNOWN)
    assert len(out.splitlines()) == 2


@given(st.text(max_size=80).filter(lambda text: "grammar" not in text))
@settings(max_examples=30, deadline=None)
def test_main_non_grammar_text_is_usage_error(text):
    assert _run_main(text) == (EXIT_USAGE, "")


def test_validate_catches_bad_witness():
    g = grammar('grammar G { start S; S -> "a"; }')
    bogus = Overlap(witness=("a", "a"), iterations=0)
    assert _validate_verdict(bogus, [g]) is not None


def test_validate_catches_non_separating_family():
    g = grammar('grammar G { start S; S -> "a"; }')
    sigma = Nfa(1, ("a",), frozenset({(0, "a", 0)}), 0, frozenset({0}))
    bogus = Separable(approximations=(sigma, sigma), iterations=0)
    assert _validate_verdict(bogus, [g, g]) is not None
