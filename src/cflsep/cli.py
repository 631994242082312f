"""Batch front-end: read grammar files, run the engine, report a verdict.

Exit codes: 0 separable, 1 overlap, 2 unknown, 3 usage or parse error,
4 internal error (a --validate re-check failed).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path
from typing import Sequence

from .engine import ABSTRACTIONS, STRATEGIES, Config, Overlap, Separable, Unknown, check_disjoint
from .grammar import Cfg, GrammarError
from .grammar_io import ParseError, parse_named
from .nfa import Nfa, complement, intersect, is_empty, to_dot
from .prestar import in_language, intersects

EXIT_SEPARABLE = 0
EXIT_OVERLAP = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 3, not argparse's 2
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cflsep",
        description="Decide whether the context-free grammars in the given "
        "files generate disjoint languages.",
    )
    parser.add_argument("files", nargs="+", help="grammar files (at least two grammars in total)")
    defaults = Config()
    parser.add_argument(
        "--abstraction",
        choices=ABSTRACTIONS,
        default=defaults.abstraction,
        help="initial regular approximation (default: %(default)s)",
    )
    parser.add_argument(
        "--refine",
        choices=STRATEGIES,
        default=defaults.strategy,
        help="counterexample generalization strategy (default: %(default)s)",
    )
    parser.add_argument("--max-refinements", type=int, default=defaults.max_refinements, metavar="N")
    parser.add_argument("--timeout", type=float, default=60.0, metavar="SECONDS")
    parser.add_argument(
        "--dump-approx",
        metavar="DIR",
        help="write the approximation automata as DOT files, one per grammar per iteration",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="re-check the verdict with independent oracles before reporting",
    )
    return parser


def _load_grammars(paths: Sequence[str]) -> list[tuple[str, Cfg]]:
    named: list[tuple[str, Cfg]] = []
    seen: set[str] = set()
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        for name, cfg in parse_named(text):
            if name in seen:
                raise _UsageError(f"duplicate grammar name {name!r} across inputs")
            seen.add(name)
            named.append((name, cfg))
    return named


def _format_witness(word: tuple[str, ...]) -> str:
    return " ".join(word)


def _validate_verdict(
    verdict: Separable | Overlap | Unknown, grammars: list[Cfg]
) -> str | None:
    """Re-check verdict validity; returns an error message on mismatch."""
    if isinstance(verdict, Overlap):
        for i, g in enumerate(grammars):
            if not in_language(g, verdict.witness):
                return f"witness not in language of grammar #{i + 1}"
        return None
    if isinstance(verdict, Separable):
        # exact, but not independent of the engine: intersect runs the product
        # walk that the engine's difference runs; emptiness is decided by a
        # reach, not by the engine's witness search
        approxs = verdict.approximations
        if not is_empty(functools.reduce(intersect, approxs)):
            return "approximations claimed separating but still intersect"
        alphabet = list(dict.fromkeys(sym for g in grammars for sym in g.terminals))
        for i, (g, approx) in enumerate(zip(grammars, approxs)):
            if intersects(g, complement(approx, alphabet)):
                return f"approximation of grammar #{i + 1} misses a word of its language"
        return None
    return None


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.timeout >= 0:  # NaN compares false with every clock reading
            raise _UsageError(f"--timeout must be a non-negative number, not {args.timeout}")
        named = _load_grammars(args.files)
    except (_UsageError, OSError, UnicodeDecodeError, ParseError, GrammarError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if len(named) < 2:
        print("error: need at least two grammars", file=sys.stderr)
        return EXIT_USAGE

    names = [name for name, _ in named]
    grammars = [cfg for _, cfg in named]
    try:
        config = Config(
            abstraction=args.abstraction,
            strategy=args.refine,
            max_refinements=args.max_refinements,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    deadline = time.monotonic() + args.timeout

    def should_stop() -> str | None:
        return "timeout" if time.monotonic() > deadline else None

    observer = None
    try:  # the only OSError here is --dump-approx failing to create or write
        if args.dump_approx:
            dump_dir = Path(args.dump_approx)
            dump_dir.mkdir(parents=True, exist_ok=True)

            def observer(iteration: int, approxs: Sequence[Nfa]) -> None:
                for name, approx in zip(names, approxs):
                    path = dump_dir / f"{name}-iter{iteration}.dot"
                    path.write_text(to_dot(approx, name=f"{name}_iter{iteration}"), encoding="utf-8")

        verdict = check_disjoint(grammars, config, should_stop=should_stop, observer=observer)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.validate:
        problem = _validate_verdict(verdict, grammars)
        if problem is not None:
            print(f"internal error: {problem}", file=sys.stderr)
            return EXIT_INTERNAL

    if isinstance(verdict, Separable):
        print("VERDICT: SEPARABLE")
        print(f"iterations={verdict.iterations}")
        return EXIT_SEPARABLE
    if isinstance(verdict, Overlap):
        print(f'VERDICT: OVERLAP witness="{_format_witness(verdict.witness)}"')
        print(f"iterations={verdict.iterations}")
        return EXIT_OVERLAP
    print(f"VERDICT: UNKNOWN reason={verdict.reason}")
    print(f"iterations={verdict.iterations}")
    return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
