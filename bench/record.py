"""Rewrite expected.json: the verdict and iteration count of every query.

    python3 bench/record.py

The table is the benchmark's reference for correctness, so it is recorded
once, at the commit that defines the benchmark, and not again by a change
that claims a gain. Queries are decided under two seeds, which must agree,
since a seed only renames terminals and reorders queries.
"""

import json
import sys
from pathlib import Path

from check import verdict_name
from workloads import WORKLOADS, queries

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import cflsep  # noqa: E402


def decide(workload: str, seed: int) -> dict[str, list]:
    table = {}
    for q in queries(workload, seed):
        grammars = [g for _, g in cflsep.parse_named(q.text)]
        verdict = cflsep.check_disjoint(grammars, cflsep.Config(q.abstraction, q.strategy, q.cap))
        table[q.key] = [verdict_name(verdict), verdict.iterations]
    return table


def main() -> None:
    table = {}
    for workload in WORKLOADS:
        first, second = decide(workload, 0), decide(workload, 1)
        if first != second:
            sys.exit(f"{workload}: verdicts depend on the seed")
        table.update(first)
    lines = [f"  {json.dumps(key)}: {json.dumps(table[key])}" for key in sorted(table)]
    (BENCH / "expected.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(table)} queries")


if __name__ == "__main__":
    main()
