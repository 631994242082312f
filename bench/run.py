"""cflsep benchmark: decide seeded batches of queries through the library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one process, closed loop: each ``check_disjoint`` call starts
when the previous one has returned. A run repeats passes over the
workload's queries (see ``workloads.py``) until ``--seconds`` would be
exceeded and at least MIN_EXECUTIONS queries have run. Every verdict is
checked (``check.py``); the last stdout line is the JSON result.

``--trace 0`` reports the end-to-end metrics with tracing off. Their times
are scaled to reference speed with the loop in ``reference.py``, timed
between queries and around each set-up, because the speed of a shared host
drifts by up to 2x within and between runs. ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics from the
traced ones (``tracer.py``), with the tracing overhead and span coverage;
the spans are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import resource
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any

from check import problem, verdict_name
from reference import REFERENCE_S, reference_s
from tracer import LAYERS, Tracer, layer_times
from workloads import WORKLOADS, queries

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

MIN_EXECUTIONS = 100  # so that query_s.p90 has at least ten samples beyond it
# setup_s is the median of SETUP_REPS fresh interpreters, SETUP_PER_PASS of
# them before each pass: spread over the run, so that one slow spell of a
# shared machine does not decide it. The traced run times SETUP_REPS parses.
SETUP_REPS = 24
SETUP_PER_PASS = 4
# Watchdog: a run still going this long after --seconds is killed, and what
# it had not finished counts as failed, so an unbounded round fails in
# bounded time. The checks then get a deadline of their own.
WATCHDOG_MARGIN_S = 100
CHECK_DEADLINE_S = 20
MIN_COVERAGE = 0.95


class Watchdog(BaseException):
    """Raised by SIGALRM; a BaseException, so no ``except Exception`` in the
    library or here can swallow it."""


def _fire(signum: int, frame: Any) -> None:
    raise Watchdog


class Run:
    """Query executions of one benchmark run and their outcomes."""

    def __init__(self, cflsep: Any, queries: list, expected: dict) -> None:
        self.cflsep = cflsep
        self.queries = queries
        self.keys = [q.key for q in queries]
        self.expected = expected
        self.grammars: dict[str, list] = {}
        # untraced passes, scaled to reference speed: each query's times and
        # each whole pass's summed query time
        self.times: dict[str, list[float]] = defaultdict(list)
        self.pass_s: list[float] = []
        self.first: dict[str, Any] = {}
        # An execution is attempted when its pass starts and gets its outcome
        # (None, or why it failed) when it ends, each by one list operation,
        # so wherever the watchdog fires the unfinished ones are known.
        self.executed: list[str] = []  # query key of each execution, in order
        self.outcome: list[str | None] = []
        self.wrong: dict[str, str] = {}  # query key -> why its verdict is wrong

    def parse(self) -> None:
        for q in self.queries:
            if q.text not in self.grammars:
                self.grammars[q.text] = [g for _, g in self.cflsep.parse_named(q.text)]

    @property
    def attempted(self) -> int:
        return len(self.executed)

    @property
    def failed(self) -> int:
        return sum(
            why is not None or key in self.wrong
            for key, why in zip(self.executed, self.outcome)
        )

    def problems(self, limit: int = 20) -> list[str]:
        found = dict.fromkeys(
            f"{key}: {why}" for key, why in zip(self.executed, self.outcome) if why is not None
        )
        found.update(dict.fromkeys(f"{key}: {why}" for key, why in self.wrong.items()))
        return list(found)[:limit]

    def one_pass(self, tracer: Tracer | None = None) -> float:
        """Decide every query once, in spans of ``tracer`` if given; returns
        the summed query seconds as measured.

        An untraced pass times the reference loop before the first query and
        after each one, and scales each query's time by the mean of the two
        reference times around it."""
        total = 0.0
        scaled_total = 0.0
        cflsep = self.cflsep
        self.executed.extend(self.keys)
        ref_before = reference_s() if tracer is None else 0.0
        for q in self.queries:
            grammars = self.grammars[q.text]
            cfg = cflsep.Config(q.abstraction, q.strategy, q.cap)
            gc.collect()
            try:
                if tracer is not None:
                    tracer.query = len(self.outcome) + 1
                    start = perf_counter()
                    verdict = tracer.call("query", cflsep.check_disjoint, grammars, cfg)
                else:
                    start = perf_counter()
                    verdict = cflsep.check_disjoint(grammars, cfg)
                seconds = perf_counter() - start
            except Exception as exc:  # a raising query is a failed query
                self.outcome.append(f"raised {exc!r}")
                continue
            total += seconds
            if tracer is None:
                ref_after = reference_s()
                scaled = seconds * 2 * REFERENCE_S / (ref_before + ref_after)
                ref_before = ref_after
                self.times[q.key].append(scaled)
                scaled_total += scaled
            first = self.first.setdefault(q.key, verdict)
            got = (verdict_name(verdict), verdict.iterations)
            same = got == (verdict_name(first), first.iterations)
            self.outcome.append(None if same else f"verdict changed between passes: {got}")
        if tracer is None:
            self.pass_s.append(scaled_total)
        return total

    def kill(self) -> None:
        """The watchdog fired during the passes: the executions of the pass
        in progress that have no outcome fail. Between passes, the pass that
        would have come next counts as failed."""
        if len(self.outcome) == len(self.executed):
            self.executed.extend(self.keys)
        self.outcome.extend(["killed by the watchdog"] * (len(self.executed) - len(self.outcome)))

    def check_all(self) -> None:
        """Check each query's first verdict; a wrong one fails every
        execution of that query."""
        for q in self.queries:
            if q.key not in self.first:
                continue
            expected = self.expected.get(q.key)
            if expected is None:
                why = "not in the expected table"
            else:
                try:
                    why = problem(self.cflsep, self.grammars[q.text], self.first[q.key], expected, q.disjoint)
                except Exception as exc:  # a raising check rejects the verdict
                    why = f"check raised {exc!r}"
            if why is not None:
                self.wrong[q.key] = why


def set_up(payload: str) -> float:
    """Seconds of one set-up in a fresh interpreter, scaled to reference
    speed by the reference loop timed there just before and after it."""
    done = subprocess.run(
        [sys.executable, "-I", str(BENCH / "setup_probe.py")],
        input=payload, capture_output=True, text=True, check=True, timeout=60,
    )
    seconds, ref_before, ref_after = map(float, done.stdout.split())
    return seconds * 2 * REFERENCE_S / (ref_before + ref_after)


def run_untraced(run: Run, seconds: float) -> dict[str, float]:
    payload = json.dumps(list(run.grammars))
    set_up(payload)  # the first import compiles bytecode; a user pays that only once
    setups: list[float] = []
    start = perf_counter()
    longest = 0.0
    try:
        while run.attempted < MIN_EXECUTIONS or perf_counter() - start + longest <= seconds:
            began = perf_counter()
            if len(setups) < SETUP_REPS:
                setups.extend(set_up(payload) for _ in range(SETUP_PER_PASS))
            run.one_pass()
            longest = max(longest, perf_counter() - began)
    except Watchdog:
        run.kill()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not run.pass_s:
        return {}
    samples = [t for ts in run.times.values() for t in ts]
    deciles = statistics.quantiles(samples, n=10)
    verdicts = list(run.first.values())
    separable = [v for v in verdicts if isinstance(v, run.cflsep.Separable)]
    decided = [v for v in verdicts if not isinstance(v, run.cflsep.Unknown)]
    print(f"executions={len(samples)} queries={len(run.queries)} passes={len(run.pass_s)} "
          f"beyond_p90={sum(t > deciles[8] for t in samples)}")
    return {
        "pass_s": statistics.median(run.pass_s),
        "query_s.p50": statistics.median(samples),
        "query_s.p90": deciles[8],
        "decided_ratio": len(decided) / len(run.queries),
        "separator_states": sum(a.num_states for v in separable for a in v.approximations),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }


def run_traced(run: Run, seconds: float, workload: str, seed: int) -> dict[str, float]:
    tracer = Tracer()
    parse_s = []
    for _ in range(SETUP_REPS):
        tracer.spans.clear()
        for text in run.grammars:
            tracer.call("parse", run.cflsep.parse_named, text)
        parse_s.append(layer_times(tracer.spans)["parse.s"])
    tracer.spans.clear()

    untraced: list[float] = []
    per_pass: list[dict[str, float]] = []
    spans: list = []
    start = perf_counter()
    longest = 0.0
    try:
        while run.attempted < MIN_EXECUTIONS or perf_counter() - start + longest <= seconds:
            began = perf_counter()
            untraced.append(run.one_pass())
            tracer.spans.clear()
            tracer.counts.clear()
            tracer.install()
            try:
                run.one_pass(tracer)
            finally:
                tracer.remove()
            base = len(spans)  # parent indices become indices into ``spans``
            spans.extend(
                (name, t0, t1, parent + base if parent >= 0 else parent, execution)
                for name, t0, t1, parent, execution in tracer.spans
            )
            metrics = {k: float(v) for k, v in tracer.counts.items()}
            metrics.update(layer_times(tracer.spans))
            per_pass.append(metrics)
            longest = max(longest, perf_counter() - began)
    except Watchdog:
        run.kill()
    if not per_pass:
        return {}

    names = (
        ["query.s", "check.self_s", "generalize.self_s"]
        + [f"{layer}.s" for layer in LAYERS]
        + ["approximation.states", "joint_witness.calls", "joint_witness.in_states",
           "classify.calls", "classify.witness_len", "generalize.calls",
           "generalize.out_states", "prestar.checks",
           "prestar.accepted", "prestar.reverts", "prestar.session_steps",
           "difference.calls", "difference.dfa_states", "difference.out_states",
           "prestar.accept_ratio", "trace.coverage"]
    )
    for m in per_pass:
        m["check.self_s"] = m.get("query.self_s", 0.0)
        m["prestar.accept_ratio"] = m.get("prestar.accepted", 0.0) / max(m.get("prestar.checks", 0.0), 1.0)
        m["trace.coverage"] = 1.0 - m["check.self_s"] / max(m.get("query.s", 0.0), 1e-9)
    out = {name: statistics.median(m.get(name, 0.0) for m in per_pass) for name in names}
    out["parse.s"] = statistics.median(parse_s)
    out["trace.overhead_s"] = out["query.s"] - statistics.median(untraced)

    print(f"traced passes={len(per_pass)} coverage={out['trace.coverage']:.4f} "
          f"overhead_s={out['trace.overhead_s']:.3f}")
    rows = {layer: out[f"{layer}.s"] for layer in LAYERS}
    rows["generalize.self"] = out["generalize.self_s"]
    rows["engine remainder"] = out["check.self_s"]
    for name, seconds in rows.items():
        print(f"  {name:17s} {seconds:8.3f} s  {100 * seconds / out['query.s']:5.1f}% of query time")

    # a span is (name, start, end, parent index, execution number); the key
    # of execution n is executions[n - 1]
    OUT.mkdir(exist_ok=True)
    with gzip.open(OUT / f"spans-{workload}-seed{seed}.json.gz", "wt") as fh:
        json.dump({"executions": run.executed, "spans": spans}, fh)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cflsep" / "__init__.py").is_file():
        print(f"error: no cflsep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cflsep

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    qs = queries(args.workload, args.seed)
    expected = json.loads((BENCH / "expected.json").read_text())
    run = Run(cflsep, qs, expected)
    values: dict[str, float] = {}
    signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, args.seconds + WATCHDOG_MARGIN_S)
    try:
        run.parse()
        if args.trace:
            values = run_traced(run, args.seconds, args.workload, args.seed)
        else:
            values = run_untraced(run, args.seconds)
        signal.setitimer(signal.ITIMER_REAL, CHECK_DEADLINE_S)
        run.check_all()
    except Watchdog:
        # set-up, the checks or the bookkeeping overran: nothing is trusted
        if not run.executed:
            run.kill()
        run.wrong = dict.fromkeys(run.keys, "killed by the watchdog outside a pass")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)

    problems = run.problems()
    correct = run.failed == 0 and bool(values)
    if args.trace and values and values["trace.coverage"] < MIN_COVERAGE:
        correct = False
        problems.append(f"spans cover only {values['trace.coverage']:.3f} of query time")
    for line in problems:
        print(f"problem: {line}")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


def unit(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith(("ratio", "coverage")):
        return "ratio"
    if metric.endswith(("_s", ".s")) or metric.startswith("query_s."):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
