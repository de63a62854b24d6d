"""A fixed reference computation that gauges the host's current speed.

The benchmark's hosts are shared: the same ``kahlercheck run`` takes from
one to two times as long within minutes, as other tenants load the CPUs,
the caches and the memory bus.  ``measure`` times a fixed piece of numpy
work that does not use kahlercheck.  ``run.py`` times it right before and
right after each CLI invocation and divides the invocation's times by it,
so a drift of the host's speed cancels while a change of the program does
not: no code of the program runs inside the reference.

The work has the two shapes the jet kernel runs in: many small operations on
120-point batches, where interpreter and call overhead dominate, and
streaming operations on 16 MB arrays, where memory bandwidth dominates.  One
pass takes about half a second.  ``run.py`` starts one copy of this script
per CPU the workload keeps busy, at the same time, so the reference feels
the same sharing of caches and memory bus; it takes the median pass, so one
pass caught by a burst of load on the host does not move the figure.

    python3 perfbench/reference.py      # JSON list of [wall_s, cpu_s] per pass
"""

from __future__ import annotations

import json
import time

import numpy as np

SMALL_REPS = 20000       # (120, 4, 4) products: overhead-bound
LARGE_REPS = 64          # passes over 2 x 16 MB arrays: bandwidth-bound
PASSES = 10              # timed passes, after one warm-up pass

_rng = np.random.default_rng(12345)
_SMALL = _rng.standard_normal((120, 4, 4))
_LARGE_A = _rng.standard_normal(2_000_000)
_LARGE_B = _rng.standard_normal(2_000_000)


def _work() -> float:
    acc = 0.0
    s = _SMALL
    for _ in range(SMALL_REPS):
        acc += float((s @ s + s)[0, 0, 0])
    for _ in range(LARGE_REPS):
        acc += float((_LARGE_A * _LARGE_B + _LARGE_A)[0])
    return acc


def measure(passes: int) -> list[tuple[float, float]]:
    """Wall and CPU seconds of each of ``passes`` passes of the reference work."""
    out = []
    for _ in range(passes):
        w0, c0 = time.perf_counter(), time.process_time()
        _work()
        out.append((time.perf_counter() - w0, time.process_time() - c0))
    return out


def main() -> int:
    _work()         # warm-up
    print(json.dumps(measure(PASSES)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
