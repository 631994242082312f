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

from .grammar import Cfg, GrammarError, Production, nt, t


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
            (_, name, line, col), cfg = self.parse_grammar()
            if name in names:
                raise ParseError(f"duplicate grammar name {name!r}", line, col)
            names.add(name)
            grammars.append((name, cfg))
        if not grammars:
            tok = self.peek()
            raise ParseError("no grammars in file", tok[2], tok[3])
        return grammars

    def parse_grammar(self) -> tuple[tuple[str, str, int, int], Cfg]:
        """The grammar's name token and its ``Cfg``."""
        self.take("ident", "grammar")
        name_tok = self.take("ident")
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
            raise ParseError(str(exc), name_tok[2], name_tok[3]) from exc
        return name_tok, cfg


def parse_named(text: str) -> list[tuple[str, Cfg]]:
    """All grammars of a file, in declaration order, with their names."""
    return _Parser(text).parse()


def parse_file(text: str) -> list[Cfg]:
    """The grammars of a file, in declaration order."""
    return [cfg for _, cfg in parse_named(text)]
