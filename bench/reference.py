"""A fixed reference loop that measures how fast the machine runs right now.

On a shared host the same Python code runs up to twice as fast at one moment
as at another, in phases of seconds to minutes that no statistic over one run
can filter out. The benchmark therefore times this loop next to every query
and every set-up and reports each time scaled to reference speed:

    scaled = measured * REFERENCE_S / reference time measured alongside it

The loop is interpreter dispatch, list indexing and small-integer arithmetic
over lists built at import. It allocates nothing, so it does not depend on
the heap the program leaves behind, and no change to ``src/`` can change it.
One measurement is the median of five timed calls, so that an interrupt
during one call does not count as a slow machine.
"""

from __future__ import annotations

import random
from time import perf_counter

# Seconds of one ``reference()`` call at reference speed: about the fastest
# it ran on the 2-core 2.1 GHz Xeon VM that defined the benchmark (0.60 ms;
# the median there was 0.88 ms).
REFERENCE_S = 0.0006
CALLS = 5

_rng = random.Random(12345)
_VALUE = [_rng.randrange(200) for _ in range(1000)]
_NEXT = [_rng.randrange(1000) for _ in range(1000)]


def reference() -> int:
    i = 0
    hits = 0
    for _ in range(15000):
        i = _NEXT[i]
        if _VALUE[i] < 100:
            hits += 1
    return hits


def reference_s() -> float:
    """Seconds one ``reference()`` call takes now: the median of CALLS."""
    times = []
    for _ in range(CALLS):
        start = perf_counter()
        reference()
        times.append(perf_counter() - start)
    return sorted(times)[CALLS // 2]
