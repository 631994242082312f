"""The abstraction / verification / refinement loop over k >= 2 grammars.

Each grammar gets a regular over-approximation; while the joint
intersection of the approximations is nonempty, its shortest witness is
classified against the actual languages. A witness in every language proves
overlap; otherwise every approximation whose language excludes the witness
is tightened by subtracting that grammar's generalization of it. Within a
round, equal (approximation, generalization) pairs are subtracted once and
share the result: ``difference`` returns the canonical minimal DFA, a pure
function of its two values. Deterministic given the configuration: witness
choice and candidate orders are all fixed.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Literal, Sequence

from .approximation import nederhof, sigma_star
from .grammar import Cfg, GrammarError
from .nfa import Nfa, difference
from .nfa import shortest_common_word as _joint_witness  # the per-round witness search
from .prestar import in_language
from .refinement import BudgetExceededError, _generalization
from .value import Value

ABSTRACTIONS = ("sigma-star", "nederhof")
STRATEGIES = ("greedy-star", "greedy-eps", "max-star", "max-eps")


class Config(Value):
    abstraction: str
    strategy: str
    max_refinements: int

    def __init__(
        self, abstraction: str = "nederhof", strategy: str = "greedy-eps", max_refinements: int = 100
    ) -> None:
        if abstraction not in ABSTRACTIONS:
            raise ValueError(f"unknown abstraction {abstraction!r}")
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        if max_refinements < 1:
            raise ValueError("max_refinements must be at least 1")
        object.__setattr__(self, "abstraction", abstraction)
        object.__setattr__(self, "strategy", strategy)
        object.__setattr__(self, "max_refinements", max_refinements)


class Separable(Value):
    """The approximations form a separating family: joint product is empty.
    Grammars whose approximations are equal may hold one shared value."""

    approximations: tuple[Nfa, ...]
    iterations: int

    def __init__(self, approximations: tuple[Nfa, ...], iterations: int) -> None:
        object.__setattr__(self, "approximations", approximations)
        object.__setattr__(self, "iterations", iterations)


class Overlap(Value):
    """The witness belongs to every input language."""

    witness: tuple[str, ...]
    iterations: int

    def __init__(self, witness: tuple[str, ...], iterations: int) -> None:
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "iterations", iterations)


class Unknown(Value):
    reason: Literal["iterations", "budget", "timeout"]
    iterations: int

    def __init__(self, reason: Literal["iterations", "budget", "timeout"], iterations: int) -> None:
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "iterations", iterations)


Verdict = Separable | Overlap | Unknown


def classify_witness(w: Sequence[str], grammars: Sequence[Cfg]) -> list[bool]:
    """Membership of the witness in each grammar's language, in order.

    The witness ranges over the union alphabet, so a symbol foreign to some
    grammar just means the witness is outside that grammar's language.
    """
    word = tuple(w)
    return [in_language(g, word) for g in grammars]


def _generalize(g: Cfg, w: tuple[str, ...], cfg: Config, deadline: float = math.inf) -> Nfa:
    return _generalization(g, w, cfg.strategy, deadline=deadline)[0]


def check_disjoint(
    grammars: Sequence[Cfg],
    cfg: Config = Config(),
    deadline: float = math.inf,
    observer: Callable[[int, Sequence[Nfa]], None] | None = None,
) -> Verdict:
    """Decide whether the grammars' languages have a common word.

    ``deadline``, a ``time.monotonic()`` reading, is checked at the top of
    every round and at every node of a generalization walk; once it has
    passed, the verdict is ``Unknown("timeout", k)`` for the k rounds done. A
    subtraction can still run past it. ``observer`` sees the approximations
    at the start of every round, for artifact dumping.

    Each round subtracts every distinct (approximation, generalization)
    pair once, and the grammars with that pair take the one result; under
    sigma-star all grammars start from one shared value. So the tuples that
    ``observer`` and ``Separable`` hold may give several grammars the same
    value. Values are immutable, so sharing them changes no output.
    """
    if len(grammars) < 2:
        raise GrammarError("need at least two grammars")
    alphabet = list(dict.fromkeys(sym for g in grammars for sym in g.terminals))

    if cfg.abstraction == "sigma-star":
        approxs = [sigma_star(tuple(alphabet))] * len(grammars)
    else:
        approxs = [nederhof(g) for g in grammars]

    refinements = 0
    while True:
        if time.monotonic() > deadline:
            return Unknown("timeout", refinements)
        if observer is not None:
            observer(refinements, tuple(approxs))
        witness = _joint_witness(approxs, alphabet)
        if witness is None:
            return Separable(tuple(approxs), refinements)
        membership = classify_witness(witness, grammars)
        if all(membership):
            return Overlap(witness, refinements)
        if refinements >= cfg.max_refinements:
            return Unknown("iterations", refinements)
        subtracted: dict[tuple[Nfa, Nfa], Nfa] = {}
        try:
            for i, inside in enumerate(membership):
                if not inside:
                    key = (approxs[i], _generalize(grammars[i], witness, cfg, deadline))
                    if key not in subtracted:
                        subtracted[key] = difference(*key)
                    approxs[i] = subtracted[key]
        except BudgetExceededError:  # a walk gave up: its node budget or the deadline
            return Unknown("timeout" if time.monotonic() > deadline else "budget", refinements)
        refinements += 1
