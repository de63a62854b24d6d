#!/usr/bin/env python3
"""Stencil convergence study for the variation catalog.

Runs selected first-variation checks over a range of base steps and writes a
CSV of residuals and observed orders, which is how the default step and
Richardson depth were chosen.
"""

import argparse
import csv
import sys

from kahlercheck import backends as bk
from kahlercheck import checks as ck
from kahlercheck.catalog import RunOptions

DEFAULT_IDS = ("V-ADJ", "V-DIV2", "V-DH", "V-HESS")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--fixture", default="PERT2")
    ap.add_argument("--checks", default=",".join(DEFAULT_IDS))
    ap.add_argument("--out", default="convergence.csv")
    args = ap.parse_args(argv)
    fixture = bk.make_fixture(args.fixture)
    rows = []
    for cid in args.checks.split(","):
        entry = ck.REGISTRY[cid]
        for step in (4e-2, 2e-2, 1e-2, 5e-3):
            for rich in (0, 1, 2):
                opts = RunOptions(base_step=step, richardson=rich, node_count=40)
                out = entry.runner(fixture, 0, opts)
                rows.append({
                    "check_id": cid,
                    "fixture": args.fixture,
                    "base_step": step,
                    "richardson_levels": rich,
                    "residual_sup": f"{out.sup:.6e}",
                    "observed_order": out.order,
                })
                print(rows[-1])
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    sys.exit(main())
