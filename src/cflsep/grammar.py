"""Context-free grammars: representation, normal form, SCCs.

A grammar is an immutable value; every operation here is a pure function.
Words are tuples of terminal names, so multi-character terminals (token
alphabets) work exactly like single characters. Membership is decided by
saturation, in ``prestar``; the bounded enumeration that the tests compare
it with lives in ``tests/oracles.py``.
"""

from __future__ import annotations

from .value import Value


class GrammarError(ValueError):
    """A grammar or word violates a structural precondition."""


class Symbol(Value):
    """One grammar symbol. ``terminal`` distinguishes the two namespaces."""

    name: str
    terminal: bool

    def __init__(self, name: str, terminal: bool) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "terminal", terminal)

    def __repr__(self) -> str:
        return f'"{self.name}"' if self.terminal else self.name


def t(name: str) -> Symbol:
    return Symbol(name, True)


def nt(name: str) -> Symbol:
    return Symbol(name, False)


class Production(Value):
    lhs: str
    rhs: tuple[Symbol, ...]

    def __init__(self, lhs: str, rhs: tuple[Symbol, ...]) -> None:
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def __repr__(self) -> str:
        body = " ".join(repr(s) for s in self.rhs) if self.rhs else "<empty>"
        return f"{self.lhs} -> {body}"


class Cfg(Value):
    """A context-free grammar.

    ``variables`` and ``terminals`` are stored as tuples to preserve the
    declaration order (fresh-name generation, SCC numbering and witness
    tie-breaking all depend on a stable order), but they behave as sets:
    names are unique and the two namespaces are disjoint.
    """

    variables: tuple[str, ...]
    terminals: tuple[str, ...]
    productions: tuple[Production, ...]
    start: str

    def __init__(
        self,
        variables: tuple[str, ...],
        terminals: tuple[str, ...],
        productions: tuple[Production, ...],
        start: str,
    ) -> None:
        vset, tset = set(variables), set(terminals)
        if len(vset) != len(variables) or len(tset) != len(terminals):
            raise GrammarError("duplicate symbol declarations")
        if vset & tset:
            raise GrammarError(
                f"terminal/nonterminal namespaces overlap: {sorted(vset & tset)}"
            )
        if start not in vset:
            raise GrammarError(f"start symbol {start!r} is not a variable")
        for prod in productions:
            if prod.lhs not in vset:
                raise GrammarError(f"production lhs {prod.lhs!r} is not a variable")
            for sym in prod.rhs:
                pool = tset if sym.terminal else vset
                if sym.name not in pool:
                    raise GrammarError(f"undeclared symbol {sym!r} in {prod!r}")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terminals", terminals)
        object.__setattr__(self, "productions", productions)
        object.__setattr__(self, "start", start)

    def __hash__(self) -> int:  # hashed once: grammar values key prestar's rule index
        if "_hash" not in self.__dict__:
            self.__dict__["_hash"] = super().__hash__()
        return self.__dict__["_hash"]

    def __getstate__(self) -> dict:  # a hash is only valid in the process that made it
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}


class SccPartition(Value):
    """Partition of the nonterminals into mutually recursive blocks.

    ``blocks`` are ordered tuples (member order follows the grammar's
    variable declaration order) and the partition itself is in topological
    order of the block condensation: a block comes before the blocks it
    references.
    """

    blocks: tuple[tuple[str, ...], ...]
    index: dict[str, int]

    def __init__(self, blocks: tuple[tuple[str, ...], ...], index: dict[str, int]) -> None:
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "index", index)


def fresh_name(base: str, used: set[str]) -> str:
    """Deterministic fresh identifier: smallest ``base_k`` not yet used."""
    k = 1
    while f"{base}_{k}" in used:
        k += 1
    name = f"{base}_{k}"
    used.add(name)
    return name


# ---------------------------------------------------------------------------
# Normal form: every production is A -> XY | X | <empty>, X and Y any symbols
# ---------------------------------------------------------------------------


def is_normal_form(g: Cfg) -> bool:
    return all(len(p.rhs) <= 2 for p in g.productions)


def normalize(g: Cfg) -> Cfg:
    """Rewrite ``g`` so every production is A -> XY, A -> X or A -> ε, where
    X and Y are terminals or nonterminals (Lange & Leiß 2009).

    The language is preserved and the grammar grows linearly: a right-hand
    side longer than two is chained through one fresh nonterminal per symbol
    beyond its second, and its terminals stay as they are. Already-normal
    grammars are returned unchanged.
    """
    if is_normal_form(g):
        return g

    used = set(g.variables) | set(g.terminals)
    new_vars = list(g.variables)
    new_prods: list[Production] = []
    for prod in g.productions:
        lhs, body = prod.lhs, prod.rhs
        while len(body) > 2:
            helper = fresh_name(prod.lhs, used)
            new_vars.append(helper)
            new_prods.append(Production(lhs, (body[0], nt(helper))))
            lhs, body = helper, body[1:]
        new_prods.append(Production(lhs, body))

    return Cfg(tuple(new_vars), g.terminals, tuple(new_prods), g.start)


# ---------------------------------------------------------------------------
# Strongly connected components of the nonterminal reference graph
# ---------------------------------------------------------------------------


def sccs(g: Cfg) -> SccPartition:
    """Mutually recursive classes of ``g``'s nonterminals (iterative Tarjan)."""
    succ: dict[str, list[str]] = {v: [] for v in g.variables}
    for p in g.productions:
        seen = set(succ[p.lhs])
        for sym in p.rhs:
            if not sym.terminal and sym.name not in seen:
                succ[p.lhs].append(sym.name)
                seen.add(sym.name)

    order = {v: i for i, v in enumerate(g.variables)}
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = 0
    components: list[tuple[str, ...]] = []

    for root in g.variables:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            recurse = False
            for j in range(i, len(succ[v])):
                w = succ[v][j]
                if w not in index:
                    work.append((v, j + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if recurse:
                continue
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(tuple(sorted(comp, key=order.get)))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])

    components.reverse()  # Tarjan emits referenced blocks first
    block_index = {v: i for i, block in enumerate(components) for v in block}
    return SccPartition(tuple(components), block_index)
