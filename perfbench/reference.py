"""A fixed reference computation that measures the machine's current speed.

The shared machine the benchmark was built on changes speed by tens of
percent over seconds to minutes, and a 40 s run can fall wholly inside a
slow spell.  The benchmark therefore times this computation right before
every job, in the same process, and states job times in reference
seconds: measured seconds scaled by ``REFERENCE_S`` over the reference's
own best time in the run.  Set-up and per-layer times stay in measured
seconds.

The computation is ordinary interpreted Python of the same kind as the
program's (regex parsing of fact lines, a naive transitive closure over a
set of tuples, sorting and formatting), but it calls nothing in
``horneq``, so a change to the program cannot move it.
"""

from __future__ import annotations

import random
import re

# The reference's per-job best time, as a median over a run's jobs, on the
# machine the benchmark was built on (2 cores, Python 3.11).  Scaling by it
# keeps reference seconds close to that machine's seconds in a fast spell.
REFERENCE_S = 0.0028

_rng = random.Random(0)
_EDGES = sorted({(a, b) for a, b in ((_rng.randrange(60), _rng.randrange(60))
                                     for _ in range(150)) if a < b})
_TEXT = "\n".join(f"Le(v{a}, v{b});" for a, b in _EDGES)
_FACT_RE = re.compile(r"^(\w+)\((.*)\);$")


def run() -> str:
    pairs = set()
    for line in _TEXT.splitlines():
        args = _FACT_RE.match(line).group(2).split(",")
        pairs.add(tuple(a.strip() for a in args))
    while True:
        new = {(a, d) for a, b in pairs for c, d in pairs if b == c} - pairs
        if not new:
            break
        pairs |= new
    return "\n".join(f"Le({a}, {b});" for a, b in sorted(pairs))
