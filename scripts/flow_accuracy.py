#!/usr/bin/env python3
"""Accuracy of the finite-t Hamiltonian flows against a converged reference.

    PYTHONPATH=src python scripts/flow_accuracy.py [--seeds 0 1 2 3 4]

At each seed, every registered check runs on FS and on PERT2, one fixture
at a time inside a ``FixtureScope`` as ``kahlercheck run`` runs it, and every
flow that ``HamiltonianFlowCurve.flow_jets`` integrates to a t != 0 is
recorded with the highest jet order asked of it.  Each flow is then compared
with the same Runge-Kutta method run from the identity in ``REF_FACTOR``
times as many steps; its error is the largest difference over the coefficients of the
position jets.  The flows fall in three rows: every FS flow, the PERT2 flows
on check batches and those on quadrature blocks.  For each row and seed the
script prints the largest error, the step counts taken and the bound, which
is the error of the classical RK4 in steps of at most 0.0125 (and at least
four) that integrated the same flows before, measured against 64 steps of
the sixth-order method.  It
exits 1 when any row is less accurate than its bound.

Seed 3 is in the sweep, although the suite runs of CI leave it out (where
S-GAUGE/PERT2 fails on the quadrature mean of H, not on its flow): its PERT2
flow is the steepest of the five, the one that the step rule gives three
steps where the others take two, and the one that RK4 integrated least
accurately.  Takes about a minute on two cores.
"""

import argparse
import sys

import numpy as np

from kahlercheck import backends as bk
from kahlercheck import checks as ck
from kahlercheck.catalog import RunOptions
from kahlercheck.geometry import FixtureScope
from kahlercheck.jets import Jet
from kahlercheck.variation import HamiltonianFlowCurve

# the reference takes this many times the flow's own steps, so that its
# error is about 8^6 ~ 2.6e5 times below the flow's
REF_FACTOR = 8

# the largest error of each row under RK4 in steps of at most 0.0125, by
# seed, rounded up to three digits
RK4_BOUNDS = {
    "FS": (2.40e-13, 9.27e-15, 1.55e-13, 1.06e-13, 6.06e-15),
    "PERT2 check": (4.61e-8, 3.71e-6, 6.55e-7, 5.61e-4, 1.69e-6),
    "PERT2 quadrature": (5.16e-8, 4.61e-6, 6.72e-7, 8.04e-4, 1.71e-6),
}


def recorded_flows(fixture_name: str, seed: int) -> dict:
    """(curve, batch, t, highest order) of every flow to t != 0 that the
    registered checks on the fixture integrate at the seed, by (curve, batch
    token, t)."""
    flows: dict = {}
    flow_jets = HamiltonianFlowCurve.flow_jets

    def recording(curve, batch, t, order):
        t = round(t, 12)
        if t != 0.0:
            key = (id(curve), batch.token, t)
            done = flows.get(key, (curve, batch, t, order))[3]
            flows[key] = (curve, batch, t, max(done, order))
        return flow_jets(curve, batch, t, order)

    HamiltonianFlowCurve.flow_jets = recording
    try:
        with FixtureScope(bk.make_fixture(fixture_name)):
            for cid, fx in ck.checks_for(fixtures=[fixture_name]):
                rec = ck.run_check(cid, fx, seed, RunOptions())
                if rec.reason.startswith("internal-error"):
                    raise RuntimeError(f"{cid}/{fx} at seed {seed}: {rec.reason}")
    finally:
        HamiltonianFlowCurve.flow_jets = flow_jets
    return flows


def reference(curve, batch, t: float, order: int) -> list:
    n = REF_FACTOR * curve._steps(batch, t)
    pos = Jet.coordinates(batch.pts, curve.base.backend.dim, order)
    for _ in range(n):
        pos = curve._rk6_step(batch.chart, pos, t / n, order)
    return pos


def row_errors(fixture_name: str, seed: int) -> dict:
    """row -> (largest error, sorted step counts) of the fixture's flows."""
    quad = {b.token for b in bk.make_fixture(fixture_name).quad_nodes()}
    rows: dict = {}
    for curve, batch, t, order in recorded_flows(fixture_name, seed).values():
        got = curve.flow_jets(batch, t, order)
        ref = reference(curve, batch, t, order)
        err = max(float(np.max(np.abs(g.coeffs - r.coeffs))) for g, r in zip(got, ref))
        row = fixture_name
        if fixture_name == "PERT2":
            row += " quadrature" if batch.token in quad else " check"
        worst, steps = rows.get(row, (0.0, set()))
        rows[row] = (max(worst, err), steps | {curve._steps(batch, t)})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    a = ap.parse_args(argv)
    bad = []
    print(f"{'row':<17} {'seed':>4} {'steps':>5} {'error':>9} {'RK4 bound':>9}")
    for seed in a.seeds:
        rows = {**row_errors("FS", seed), **row_errors("PERT2", seed)}
        for row, bounds in RK4_BOUNDS.items():
            err, steps = rows[row]
            bound = bounds[seed] if 0 <= seed < len(bounds) else None
            flag = ""
            if bound is not None and err > bound:
                bad.append((row, seed))
                flag = "  LESS ACCURATE"
            shown = f"{bound:9.2e}" if bound is not None else f"{'-':>9}"
            print(f"{row:<17} {seed:>4} {','.join(map(str, sorted(steps))):>5} "
                  f"{err:9.2e} {shown}{flag}")
    if bad:
        print(f"less accurate than RK4: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
