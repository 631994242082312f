"""Independent verdict checks.

A verdict is accepted only when it matches the expected table (verdict,
Unknown reason and iteration count, recorded at the commit that defined the
benchmark). No workload query is expected to end Overlap, and one that is
disjoint by construction never may. A Separable verdict must also survive a
check that does not reuse the engine's own product walk: the product of the
final approximations is empty, built with ``intersect`` and tested with
``is_empty``; and each approximation contains its grammar exactly:
``not intersects(g, complement(A, alphabet))``.
"""

from __future__ import annotations

from typing import Any, Sequence


def verdict_name(verdict: Any) -> str:
    name = type(verdict).__name__
    return f"{name}:{verdict.reason}" if name == "Unknown" else name


def problem(
    cflsep: Any,
    grammars: Sequence[Any],
    verdict: Any,
    expected: tuple[str, int],
    disjoint: bool,
) -> str | None:
    """Why the verdict is wrong, or None when every check passes."""
    got = (verdict_name(verdict), verdict.iterations)
    if disjoint and isinstance(verdict, cflsep.Overlap):
        return f"Overlap on a pair disjoint by construction: {verdict.witness}"
    if got != tuple(expected):
        return f"expected {tuple(expected)}, got {got}"
    if isinstance(verdict, cflsep.Separable):
        approxs = verdict.approximations
        product = approxs[0]
        for a in approxs[1:]:
            product = cflsep.intersect(product, a)
        if not cflsep.is_empty(product):
            return "the approximations still share a word"
        alphabet = list(dict.fromkeys(sym for g in grammars for sym in g.terminals))
        for i, (g, a) in enumerate(zip(grammars, approxs)):
            if cflsep.intersects(g, cflsep.complement(a, alphabet)):
                return f"approximation {i} does not contain its grammar's language"
    return None
