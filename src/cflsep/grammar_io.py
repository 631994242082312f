"""Textual grammar files.

Format, one or more blocks per file:

    # line comment
    grammar Name {
      start S;
      S -> "a" S "a" | "c";
      X -> ;                     # empty alternative = epsilon
    }

Terminals are double-quoted strings (so multi-character tokens are fine),
nonterminals are bare identifiers, alternatives are separated by '|'. A
nonterminal is declared by appearing as a left-hand side or as the start
symbol; using any other identifier is an error.

Lexical rules: a terminal is a non-empty quoted string with no ``"`` and no
newline inside, so a ``"`` that none closes on its line is an unterminated
terminal string; an identifier matches ``[A-Za-z_][A-Za-z0-9_']*``; ``#``
starts a comment that runs to the end of the line; any other character
outside whitespace is an error. A ``ParseError`` gives a 1-based line and
column: only ``\\n`` ends a line, and a tab is one column.

The text is tokenized in one regex pass, and each token keeps only its
offset; line and column are worked out from it when an error is raised. A
lexical error is reported before any error of the parser.
"""

from __future__ import annotations

import re

from .grammar import Cfg, GrammarError, Production, Symbol, nt, t


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<arrow>->)
      | (?P<punct>[{};|])
      | (?P<string>"[^"\n]*")
      | (?P<ident>""" + _IDENT + r""")
      | (?P<bad>.)""",
    re.VERBOSE | re.DOTALL,
)

_Token = tuple[str, str, int]  # kind, text, offset


def _error(text: str, message: str, offset: int) -> ParseError:
    """A ``ParseError`` at ``text[offset]``, or at the end for ``len(text)``."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> list[_Token]:
    """The tokens of ``text`` without whitespace and comments, ending with an
    ``eof`` token at ``len(text)``; the first unexpected character raises."""
    tokens = [
        (m.lastgroup, m.group(), m.start())
        for m in _TOKEN.finditer(text)
        if m.lastgroup != "ws" and m.lastgroup != "comment"
    ]
    for kind, value, offset in tokens:
        if kind == "bad":
            message = "unterminated terminal string" if value == '"' else f"unexpected character {value!r}"
            raise _error(text, message, offset)
    tokens.append(("eof", "", len(text)))
    return tokens


def _take(text: str, tok: _Token, kind: str, value: str | None = None) -> str:
    """The text of ``tok``, which must be of ``kind`` (and spell ``value``)."""
    if tok[0] != kind or (value is not None and tok[1] != value):
        expected = value if value is not None else kind
        raise _error(text, f"expected {expected!r}, found {tok[1] or 'end of file'!r}", tok[2])
    return tok[1]


def _parse_grammar(text: str, tokens: list[_Token], pos: int) -> tuple[_Token, Cfg, int]:
    """The block at ``tokens[pos]``: its name token, its ``Cfg``, and the
    position after its ``}``.

    Errors come in this order: the first syntax error of the block, then the
    first empty terminal or undeclared nonterminal in it, then what ``Cfg``
    rejects, reported at the name token. The checks read the block's tokens
    in order, so each stops at the end-of-file token before running past it.
    """
    _take(text, tokens[pos], "ident", "grammar")
    name_tok = tokens[pos + 1]
    _take(text, name_tok, "ident")
    _take(text, tokens[pos + 2], "punct", "{")
    _take(text, tokens[pos + 3], "ident", "start")
    start = _take(text, tokens[pos + 4], "ident")
    _take(text, tokens[pos + 5], "punct", ";")
    pos += 6

    variables = {start: None}
    terminals: dict[str, int] = {}  # in order of first use, at its offset
    uses: dict[str, int] = {}  # each nonterminal used, at its first offset
    symbols: dict[str, Symbol] = {}  # one value per spelling; terminals keep quotes
    rules: list[tuple[str, list[list[Symbol]]]] = []
    kind, value, offset = tokens[pos]
    while kind != "punct" or value != "}":
        lhs = _take(text, tokens[pos], "ident")
        _take(text, tokens[pos + 1], "arrow")
        pos += 2
        variables[lhs] = None
        rhs: list[Symbol] = []
        alternatives = [rhs]
        while True:
            kind, value, offset = tokens[pos]
            pos += 1
            if kind == "string":
                name = value[1:-1]
                if name not in terminals:
                    terminals[name] = offset
                    symbols[value] = t(name)
                rhs.append(symbols[value])
            elif kind == "ident":
                if value not in uses:
                    uses[value] = offset
                    symbols[value] = nt(value)
                rhs.append(symbols[value])
            elif kind == "punct" and value == ";":
                break
            elif kind == "punct" and value == "|":
                rhs = []
                alternatives.append(rhs)
            else:
                raise _error(
                    text, f"expected symbol, '|' or ';', found {value or 'end of file'!r}", offset
                )
        rules.append((lhs, alternatives))
        kind, value, offset = tokens[pos]
    pos += 1

    # offsets grow along the text, so the smallest is the first problem
    problems = [
        (off, f"undeclared nonterminal {name!r}") for name, off in uses.items() if name not in variables
    ]
    if "" in terminals:
        problems.append((terminals[""], "empty terminal string"))
    if problems:
        offset, message = min(problems)
        raise _error(text, message, offset)

    productions = tuple(
        Production(lhs, tuple(rhs)) for lhs, alternatives in rules for rhs in alternatives
    )
    try:
        cfg = Cfg(tuple(variables), tuple(terminals), productions, start)
    except GrammarError as exc:
        raise _error(text, str(exc), name_tok[2]) from exc
    return name_tok, cfg, pos


def parse_named(text: str) -> list[tuple[str, Cfg]]:
    """All grammars of a file, in declaration order, with their names."""
    tokens = _tokenize(text)
    grammars: list[tuple[str, Cfg]] = []
    names: set[str] = set()
    pos = 0
    while tokens[pos][0] != "eof":
        (_, name, offset), cfg, pos = _parse_grammar(text, tokens, pos)
        if name in names:
            raise _error(text, f"duplicate grammar name {name!r}", offset)
        names.add(name)
        grammars.append((name, cfg))
    if not grammars:
        raise _error(text, "no grammars in file", tokens[pos][2])
    return grammars


def parse_file(text: str) -> list[Cfg]:
    """The grammars of a file, in declaration order."""
    return [cfg for _, cfg in parse_named(text)]
