"""The machine's current speed, from a fixed reference loop.

The benchmark was tuned on a 2-vCPU VM whose vCPUs share physical cores
with other tenants. When the other hyperthread of the core is busy, all
code runs 1.5-2.3x slower, for seconds or minutes at a time, and no
statistic of raw times taken in one run removes a slow spell that lasts
the whole run. So every timed command is bracketed by two runs of
`probe()`, a fixed loop that does not touch the program, and the
benchmark reports the command's time divided by the probe's time
measured around it, times `REF_S`: seconds at the speed the machine had
when the probe took `REF_S`.

The probe mixes the kinds of work the program does, because a tight
arithmetic loop slows less than the program does when the core is
shared, and a large-array loop not at all: permutations and small-array
NumPy calls (the samplers at n = 19), JSON round trips (the CLI's
output), Fraction sums (the exact laws) and dict updates through
function calls (the interpreter). On the tuning machine it took 3.3-4.4 ms
when the other hyperthread was idle and about 7.5 ms when it was busy.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import numpy as np

# a round figure within the probe's time on the tuning machine with the
# other hyperthread idle; it only sets the scale of the reported times
REF_S = 0.004

_SMALL = np.arange(19, dtype=np.int64)
_DOC = json.dumps({"blocks": [[i * 7919 % 65536 for i in range(64)] for _ in range(8)],
                   "name": "probe", "p": 0.25})


def _add(a: int, b: int) -> int:
    return a + b


def probe() -> float:
    """Wall time of one pass of the reference loop, in seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    acc = 0
    for _ in range(150):
        perm = rng.permutation(19)
        acc += int(np.bincount(perm % 5, minlength=5).max())
        acc += int(np.cumsum(_SMALL[perm])[-1] % 7)
    text = _DOC
    for _ in range(10):
        text = json.dumps(json.loads(text))
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i * i)
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = _add(counts.get(i % 97, 0), i)
    return time.perf_counter() - start
