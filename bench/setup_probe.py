"""Set-up cost in a fresh interpreter: import cflsep and parse grammar texts.

Reads a JSON list of grammar file texts on stdin and prints three numbers:
the seconds from just before ``import cflsep`` to the end of the last
``parse_named`` (the fixed cost a ``cflsep`` command pays before its first
refinement round), and the seconds of the reference loop timed just before
and just after that (``reference.py``), with which the caller scales it.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))
from reference import reference_s  # noqa: E402

texts = json.load(sys.stdin)
reference_s()  # the first call warms the loop up
ref_before = reference_s()
start = perf_counter()
import cflsep  # noqa: E402

for text in texts:
    cflsep.parse_named(text)
seconds = perf_counter() - start
print(seconds, ref_before, reference_s())
