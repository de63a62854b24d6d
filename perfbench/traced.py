"""Traced run: the workload's selection, serially and in-process, through
``kahlercheck.cli.main`` with every layer boundary wrapped in a span.

Prints one JSON line: the CLI exit code, the traced wall time, the per-layer
metrics and the records.  The spans are written, after the metrics are
computed, to ``<out>/spans.tsv.gz``.

    python3 perfbench/traced.py --workload flow --seed 0 --out .bench_out/flow/traced
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from layers import Counters, installed, layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RECORD_KEYS = ("check_id", "fixture", "seed", "status", "reason", "runtime_ms")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, required=True)
    a = ap.parse_args()

    from kahlercheck import cli

    argv = ["run", *WORKLOADS[a.workload]["args"], "--seed", str(a.seed),
            "--jobs", "1", "--quiet", "--out", str(a.out)]
    tr, c = Tracer(), Counters()
    with installed(tr, c):
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    metrics = layer_metrics(tr, c)
    metrics["trace.wall_s"] = (wall, "s")
    try:
        results = json.loads((a.out / "report.json").read_text())["results"]
        records = [{k: r.get(k) for k in RECORD_KEYS} for r in results]
    except (OSError, ValueError, KeyError):
        records = []
    tr.write(a.out / "spans.tsv.gz")
    print(json.dumps({"exit": code, "wall_s": wall, "metrics": metrics,
                      "records": records}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
