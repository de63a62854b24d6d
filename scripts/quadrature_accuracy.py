#!/usr/bin/env python3
"""Every record on FS and PERT2 against the same check on a rule twice as fine.

    PYTHONPATH=src python scripts/quadrature_accuracy.py [--seeds 0 1 2 3 4]

At each seed, every registered check runs on each fixture twice: on the
default rule and on the rule with twice the nodes per axis (FS 16 x 32
against 32 x 64, PERT2 48^2 against 96^2).  Each rule's checks run one
fixture at a time inside a ``FixtureScope``, as ``kahlercheck run`` runs
them.

For each fixture and seed the script prints the number of records, the
largest move of ``residual_sup`` between the two rules as a share of the
record's tolerance, and the record that moved most.  It exits 1 when a
record's status differs between the two rules, or when its ``residual_sup``
moves by more than ``DRIFT`` of its tolerance: then the rule does not
resolve what that check integrates.  It also exits 1 when a check raises on
either rule.  Takes about half a minute on two cores.
"""

import argparse
import math
import sys

from kahlercheck import backends as bk
from kahlercheck import checks as ck
from kahlercheck.geometry import FixtureScope

# the largest move of a residual_sup between the two rules, as a share of
# the record's tolerance
DRIFT = 1e-2

# the descriptor keys that count nodes per axis
AXES = ("grid", "n_theta", "n_phi")


def finer(desc: dict) -> dict:
    return {k: 2 * v if k in AXES else v for k, v in desc.items()}


def records(desc: dict, seed: int):
    """The rule's label, as ``FS 16 x 32`` or ``PERT2 48^2``, and (check id
    -> record) of every registered check on the fixture."""
    fixture = bk.make_fixture(desc)
    with FixtureScope(fixture):
        recs = {cid: ck.run_check(cid, desc, seed)
                for cid, _ in ck.checks_for(fixtures=[fixture.name])}
    if "grid" in desc:
        return f"{desc['kind']} {desc['grid']}^{fixture.dim}", recs
    return f"{desc['kind']} {desc['n_theta']} x {desc['n_phi']}", recs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    a = ap.parse_args(argv)
    bad = []
    print(f"{'rule':<11} {'finer':<11} {'seed':>4} {'records':>7} "
          f"{'drift/tol':>9}  worst")
    for kind in ("FS", "PERT2"):
        base = dict(bk.make_fixture(kind).descriptor)
        for seed in a.seeds:
            (coarse_rule, coarse), (fine_rule, fine) = (
                records(base, seed), records(finer(base), seed))
            worst, worst_id = 0.0, "-"
            for cid, r in coarse.items():
                f = fine[cid]
                where = f"{cid}/{kind} at seed {seed}"
                for rule, rec in ((coarse_rule, r), (fine_rule, f)):
                    if rec.reason.startswith("internal-error"):
                        bad.append(f"{where} on {rule}: {rec.reason}")
                drift = abs(r.residual_sup - f.residual_sup) / r.tolerance
                if math.isnan(drift):
                    # a NaN on both rules is no move; on one rule, the largest
                    both = math.isnan(r.residual_sup) and math.isnan(f.residual_sup)
                    drift = 0.0 if both else math.inf
                if drift >= worst:
                    worst, worst_id = drift, cid
                if r.status != f.status:
                    bad.append(f"{where}: {r.status} on {coarse_rule}, "
                               f"{f.status} on {fine_rule}")
                elif drift > DRIFT:
                    bad.append(f"{where}: residual_sup {r.residual_sup:.3e} "
                               f"against {f.residual_sup:.3e}")
            print(f"{coarse_rule:<11} {fine_rule:<11} {seed:>4} "
                  f"{len(coarse):>7} {worst:9.2e}  {worst_id}")
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
