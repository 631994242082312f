"""Outside-in layer tracing of one process's ``check_disjoint`` calls.

The tracer replaces, for the duration of a traced pass, the names that each
cflsep module looks up at call time with timing wrappers; no file under
``src/`` knows it exists. The patch points are where the engine calls into a
layer:

- ``cflsep.engine.nederhof`` / ``sigma_star``  -> approximation
- ``cflsep.engine._joint_witness``             -> joint_witness (product walk)
- ``cflsep.engine.classify_witness``           -> classify (CYK)
- ``cflsep.engine._generalize``                -> generalize (refinement)
- ``cflsep.refinement.intersects``, ``PrestarSession.__init__`` and
  ``PrestarSession.try_add``                   -> prestar (saturation)
- ``cflsep.engine.difference``                 -> difference (subtraction)
- ``cflsep.nfa.complement``                    -> a counter only: determinized
  states, looked up by ``difference`` at call time

``engine`` and ``refinement`` bind ``difference``, ``nederhof`` and
``intersects`` at import, so their own namespaces are patched, not the
defining modules. ``cflsep.prestar`` as an attribute is the ``prestar``
function re-exported by the package, so the module is taken from
``sys.modules``.

Spans (name, start, end, parent index, execution number) are kept in
memory; ``layer_times`` turns them into total and self time per layer.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable

LAYERS = (
    "approximation", "joint_witness", "classify", "generalize", "prestar", "difference",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.query = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.query))
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.query)

    def _wrap(self, name: str, fn: Callable, after: Callable) -> Callable:
        """``fn`` in a span; ``after(args, result)`` records its counts."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            result = self.call(name, fn, *args, **kwargs)
            after(args, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        engine = sys.modules["cflsep.engine"]
        refinement = sys.modules["cflsep.refinement"]
        nfa = sys.modules["cflsep.nfa"]
        session = sys.modules["cflsep.prestar"].PrestarSession
        counts = self.counts

        def approximated(args: tuple, result: Any) -> None:
            counts["approximation.states"] += result.num_states

        def walked(args: tuple, result: Any) -> None:
            counts["joint_witness.calls"] += 1
            counts["joint_witness.in_states"] += sum(a.num_states for a in args[0])

        def classified(args: tuple, result: Any) -> None:
            counts["classify.calls"] += 1
            counts["classify.witness_len"] += len(args[0])

        def checked(args: tuple, result: bool) -> None:
            counts["prestar.checks"] += 1
            counts["prestar.accepted"] += not result

        def subtracted(args: tuple, result: Any) -> None:
            counts["difference.calls"] += 1
            counts["difference.out_states"] += result.num_states

        def generalized(args: tuple, result: Any) -> None:
            counts["generalize.calls"] += 1
            counts["generalize.out_states"] += result.num_states

        complement = nfa.complement

        def complemented(*args: Any, **kwargs: Any) -> Any:
            result = complement(*args, **kwargs)
            counts["difference.dfa_states"] += result.num_states
            return result

        init, try_add = session.__init__, session.try_add

        def session_init(sess: Any, *args: Any, **kwargs: Any) -> None:
            self.call("prestar", init, sess, *args, **kwargs)
            counts["prestar.session_steps"] += sess.steps

        def session_try_add(sess: Any, edge: Any) -> bool:
            before = sess.steps
            ok = self.call("prestar", try_add, sess, edge)
            counts["prestar.session_steps"] += sess.steps - before
            counts["prestar.checks"] += 1
            counts["prestar.accepted" if ok else "prestar.reverts"] += 1
            return ok

        self._patch(engine, "nederhof", self._wrap("approximation", engine.nederhof, approximated))
        self._patch(engine, "sigma_star", self._wrap("approximation", engine.sigma_star, approximated))
        self._patch(engine, "_joint_witness", self._wrap("joint_witness", engine._joint_witness, walked))
        self._patch(engine, "classify_witness", self._wrap("classify", engine.classify_witness, classified))
        self._patch(engine, "_generalize", self._wrap("generalize", engine._generalize, generalized))
        self._patch(refinement, "intersects", self._wrap("prestar", refinement.intersects, checked))
        self._patch(session, "__init__", session_init)
        self._patch(session, "try_add", session_try_add)
        self._patch(engine, "difference", self._wrap("difference", engine.difference, subtracted))
        self._patch(nfa, "complement", complemented)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_times(spans: list[tuple[str, float, float, int, int]]) -> dict[str, float]:
    """Total seconds (``<name>.s``) and self seconds (``<name>.self_s``) per
    span name; self time is the duration minus the time of direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _, _), children in zip(spans, child_time):
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start)
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - children)
    return out
