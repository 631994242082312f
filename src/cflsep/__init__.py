"""Disjointness of context-free languages via refinable regular approximations."""

from .approximation import make_fa, nederhof, sigma_star, strongly_regular
from .engine import Config, Overlap, Separable, Unknown, Verdict, check_disjoint, classify_witness
from .grammar import Cfg, GrammarError, Production, Symbol, normalize, sccs
from .grammar_io import ParseError, parse_file, parse_named
from .nfa import (
    Nfa,
    complement,
    difference,
    intersect,
    is_empty,
    to_dot,
    union,
    word_automaton,
)
from .prestar import PrestarSession, in_language, intersects
from .refinement import (
    BudgetExceededError,
    StarGeneralization,
    eps_generalize,
    gen_language,
    max_eps_generalize,
    max_star_generalize,
    star_generalize,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Cfg",
    "Config",
    "GrammarError",
    "Nfa",
    "Overlap",
    "ParseError",
    "PrestarSession",
    "Production",
    "Separable",
    "StarGeneralization",
    "Symbol",
    "Unknown",
    "Verdict",
    "check_disjoint",
    "classify_witness",
    "complement",
    "difference",
    "eps_generalize",
    "gen_language",
    "intersect",
    "in_language",
    "intersects",
    "is_empty",
    "make_fa",
    "max_eps_generalize",
    "max_star_generalize",
    "nederhof",
    "normalize",
    "parse_file",
    "parse_named",
    "sccs",
    "sigma_star",
    "star_generalize",
    "strongly_regular",
    "to_dot",
    "union",
    "word_automaton",
]
