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
"""

from __future__ import annotations

import re

from .grammar import Cfg, GrammarError, Production, fresh_name, nt, t


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
      | (?P<ident>""" + _IDENT + ")",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append((kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int, int]:
        return self.tokens[self.pos]

    def take(self, kind: str, value: str | None = None) -> tuple[str, str, int, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind or (value is not None and tok[1] != value):
            expected = value if value is not None else kind
            raise ParseError(f"expected {expected!r}, found {tok[1] or 'end of file'!r}", tok[2], tok[3])
        self.pos += 1
        return tok

    def parse(self) -> list[tuple[str, Cfg]]:
        grammars: list[tuple[str, Cfg]] = []
        names: set[str] = set()
        while self.peek()[0] != "eof":
            name, cfg = self.parse_grammar()
            if name in names:
                tok = self.peek()
                raise ParseError(f"duplicate grammar name {name!r}", tok[2], tok[3])
            names.add(name)
            grammars.append((name, cfg))
        if not grammars:
            tok = self.peek()
            raise ParseError("no grammars in file", tok[2], tok[3])
        return grammars

    def parse_grammar(self) -> tuple[str, Cfg]:
        self.take("ident", "grammar")
        name = self.take("ident")[1]
        self.take("punct", "{")
        self.take("ident", "start")
        start = self.take("ident")[1]
        self.take("punct", ";")

        raw_rules: list[tuple[str, list[list[tuple[str, str, int, int]]]]] = []
        while not (self.peek()[0] == "punct" and self.peek()[1] == "}"):
            lhs = self.take("ident")[1]
            self.take("arrow")
            alternatives: list[list[tuple[str, str, int, int]]] = [[]]
            while True:
                kind, value, line, col = self.peek()
                if kind == "punct" and value == ";":
                    self.pos += 1
                    break
                if kind == "punct" and value == "|":
                    self.pos += 1
                    alternatives.append([])
                    continue
                if kind == "string":
                    self.pos += 1
                    alternatives[-1].append(("t", value[1:-1], line, col))
                    continue
                if kind == "ident":
                    self.pos += 1
                    alternatives[-1].append(("nt", value, line, col))
                    continue
                raise ParseError(
                    f"expected symbol, '|' or ';', found {value or 'end of file'!r}",
                    line,
                    col,
                )
            raw_rules.append((lhs, alternatives))
        self.take("punct", "}")

        declared = {start} | {lhs for lhs, _ in raw_rules}
        variables: list[str] = [start]
        terminals: list[str] = []
        for lhs, alternatives in raw_rules:
            if lhs not in variables:
                variables.append(lhs)
            for alt in alternatives:
                for kind, value, line, col in alt:
                    if kind == "t":
                        if not value:
                            raise ParseError("empty terminal string", line, col)
                        if value not in terminals:
                            terminals.append(value)
                    elif value not in declared:
                        raise ParseError(
                            f"undeclared nonterminal {value!r}", line, col
                        )

        productions = []
        for lhs, alternatives in raw_rules:
            for alt in alternatives:
                rhs = tuple(
                    t(value) if kind == "t" else nt(value)
                    for kind, value, _, _ in alt
                )
                productions.append(Production(lhs, rhs))
        try:
            cfg = Cfg(tuple(variables), tuple(terminals), tuple(productions), start)
        except GrammarError as exc:
            tok = self.peek()
            raise ParseError(str(exc), tok[2], tok[3]) from exc
        return name, cfg


def parse_named(text: str) -> list[tuple[str, Cfg]]:
    """All grammars of a file, in declaration order, with their names."""
    return _Parser(text).parse()


def parse_file(text: str) -> list[Cfg]:
    """The grammars of a file, in declaration order."""
    return [cfg for _, cfg in parse_named(text)]


def _derivable(productions: tuple[Production, ...]) -> tuple[Production, ...]:
    # alternatives using a nonterminal without productions derive no word, and
    # the parser would reject the name: drop them, to a fixpoint
    while True:
        heads = {p.lhs for p in productions}
        kept = tuple(p for p in productions if all(s.terminal or s.name in heads for s in p.rhs))
        if kept == productions:
            return kept
        productions = kept


def _spellings(g: Cfg) -> dict[str, str]:
    """Each nonterminal's name in a file: its own if it is an identifier, else
    a fresh ``N_k`` (a ``Cfg`` value may name one ``+_1``)."""
    used = set(g.variables)
    return {v: v if re.fullmatch(_IDENT, v) else fresh_name("N", used) for v in g.variables}


def _quoted(terminal: str) -> str:
    if not terminal or '"' in terminal or "\n" in terminal:
        raise ValueError(f"terminal {terminal!r} cannot be written in a grammar file")
    return f'"{terminal}"'


def render(grammars: list[Cfg], names: list[str] | None = None) -> str:
    """Grammar file text that parses back to language-identical grammars,
    under ``names`` (default ``G1``, ``G2``, ...).
    A nonterminal whose name is no identifier is renamed (``_spellings``).
    ``ValueError`` is raised for an empty ``grammars``, since a file holds
    at least one grammar, when ``names`` and ``grammars`` differ in length,
    for a name that is no identifier or repeats an earlier one, and for a
    terminal that is empty or holds ``"`` or a newline."""
    if not grammars:
        raise ValueError("no grammars to render")
    if names is None:
        names = [f"G{i + 1}" for i in range(len(grammars))]
    if len(names) != len(grammars):
        raise ValueError(f"{len(names)} names for {len(grammars)} grammars")
    for i, name in enumerate(names):
        if not re.fullmatch(_IDENT, name):
            raise ValueError(f"grammar name {name!r} is not an identifier")
        if name in names[:i]:
            raise ValueError(f"duplicate grammar name {name!r}")
    blocks = []
    for name, g in zip(names, grammars):
        spelled = _spellings(g)
        lines = [f"grammar {name} {{", f"  start {spelled[g.start]};"]
        by_lhs: dict[str, list[Production]] = {}
        for p in _derivable(g.productions):
            by_lhs.setdefault(p.lhs, []).append(p)
        for lhs in g.variables:
            if lhs not in by_lhs:
                continue
            alts = [
                " ".join(_quoted(s.name) if s.terminal else spelled[s.name] for s in p.rhs)
                for p in by_lhs[lhs]
            ]
            lines.append(f"  {spelled[lhs]} -> {' | '.join(alts)};")
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
