"""Set-up probe: import kahlercheck, build the workload's fixtures, and print
the (check, fixture) pairs its selection names, as one JSON line.

The caller times this whole process; that wall time is ``setup_s``.

    python3 perfbench/probe.py --workload flow
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def expected_pairs(registry, args: list[str], default_fixtures) -> list[list[str]]:
    """Every (check, fixture) pair the selection asks for, from the registry."""
    opts = dict(zip(args[::2], args[1::2]))
    fixtures = opts["--fixture"].split(",") if "--fixture" in opts else default_fixtures
    if "--check" in opts:
        ids = opts["--check"].split(",")
    else:
        suites = opts["--suite"].split(",")
        ids = sorted(cid for cid, d in registry.items() if d.suite in suites)
    pairs = []
    for cid in ids:
        d = registry.get(cid)
        if d is None:
            pairs.append([cid, "?"])    # unknown id: can never get a record
            continue
        pairs.extend([cid, fx] for fx in d.fixtures if fx in fixtures)
    return pairs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    a = ap.parse_args()
    w = WORKLOADS[a.workload]

    import numpy as np

    from kahlercheck import backends, checks, cli

    for name in w["fixtures"]:
        backends.make_fixture(name)
    print(json.dumps({
        "pairs": expected_pairs(checks.REGISTRY, w["args"], cli.DEFAULT_FIXTURES),
        "numpy": np.__version__,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
