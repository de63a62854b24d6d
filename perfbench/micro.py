"""Kernel microbenchmarks at the shapes the engine uses.

Each kernel runs once to warm up, then repeatedly until it has run for
``BUDGET_S`` seconds (at least ``MIN_REPS`` and at most ``MAX_REPS`` times);
the metric is the median time of one call in milliseconds.  Inputs come from
the seed.  Prints one JSON line ``{name: [value, "ms"]}``.

    python3 perfbench/micro.py --seed 0
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

BUDGET_S = 0.6
MIN_REPS = 5
MAX_REPS = 200
CHECK_POINTS = 120       # node_count of a check batch
QUAD_POINTS = 10_000     # one KAH4 quadrature batch (10^4 nodes)


def median_ms(fn) -> float:
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < MAX_REPS and (len(times) < MIN_REPS
                                     or time.perf_counter() - start < BUDGET_S):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    a = ap.parse_args()

    import numpy as np

    from kahlercheck import backends, catalog, fields, jets
    from kahlercheck.geometry import GeometryState, inverse_and_logdet
    from kahlercheck.jets import Jet, jet_einsum, jet_mul
    from kahlercheck.variation import LinearCurve, fd_derivative

    rng = np.random.default_rng(a.seed)

    def rand_jet(dim, order, shape):
        n = jets.table(dim, order).ncoeff
        return Jet(dim, order, rng.standard_normal((n,) + shape))

    def pair(dim, order, shape):
        return rand_jet(dim, order, shape), rand_jet(dim, order, shape)

    m24 = pair(2, 4, (CHECK_POINTS, 2, 2))
    m43 = pair(4, 3, (CHECK_POINTS, 4, 4, 4))
    m44 = pair(4, 4, (CHECK_POINTS, 4, 4))
    q42 = pair(4, 2, (QUAD_POINTS, 4, 4))

    spd = rand_jet(4, 4, (CHECK_POINTS, 4, 4))
    spd.coeffs = 0.05 * (spd.coeffs + np.swapaxes(spd.coeffs, -1, -2))
    spd.coeffs[0] += 2.0 * np.eye(4)

    fs = backends.make_fixture("FS")
    curve = catalog.make_kahler_family(fs, a.seed)
    fs_batch = fs.check_nodes(a.seed, CHECK_POINTS)[0]

    def flow():
        # a fresh batch token, so the curve's own cache is never hit
        nb = backends.NodeBatch(fs_batch.chart, fs_batch.pts)
        curve.flow_jets(nb, 4 * curve.step, 3)

    kah4 = backends.make_fixture("KAH4")
    geom = GeometryState(kah4)
    line = LinearCurve(kah4, fields.seeded_sym2(geom, a.seed),
                       fields.seeded_scalar(geom, a.seed + 31, mean_zero=True))
    k_batch = kah4.check_nodes(a.seed, CHECK_POINTS)[0]

    def fd():
        fd_derivative(lambda t: GeometryState(line.fixture_at(t)).f(k_batch, 0),
                      0.0, order=1, scheme="central-4", base_step=1e-2,
                      richardson_levels=2, t_max=line.t_max)

    out = {
        "micro.jet_mul.d2o4_ms": median_ms(lambda: jet_mul(*m24)),
        "micro.jet_mul.d4o3_ms": median_ms(lambda: jet_mul(*m43)),
        "micro.jet_mul.d4o4_ms": median_ms(lambda: jet_mul(*m44)),
        "micro.jet_einsum.d4o4_ms": median_ms(lambda: jet_einsum("pij,pjk->pik", *m44)),
        "micro.jet_einsum.d4o2.quad_ms":
            median_ms(lambda: jet_einsum("pik,pkj->pij", *q42)),
        "micro.inverse_and_logdet.d4o4_ms": median_ms(lambda: inverse_and_logdet(spd)),
        "micro.flow_jets.fs_ms": median_ms(flow),
        "micro.fd_derivative.linear_ms": median_ms(fd),
    }
    print(json.dumps({k: [v, "ms"] for k, v in out.items()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
