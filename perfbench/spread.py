"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 perfbench/spread.py --workload flow --seeds 0-9 --trace 0 --json out.json

For every printed metric: median, first and third quartile
(``statistics.quantiles`` with ``n=4``) and the quartile distance as a share
of the median, next to the bound BENCHMARK.json gives it.  Runs are serial,
one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, help="write runs and summary here")
    a = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in seeds_of(a.seeds):
        res = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", a.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(a.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = res.stdout.strip().splitlines()
        last = json.loads(lines[-1])
        # every figure the run printed, including those outside the JSON result
        printed = {}
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) == 4 and parts[0] == a.workload:
                printed[parts[1]] = float(parts[2])
        runs.append({"seed": seed, "exit": res.returncode, "printed": printed, **last})
        vals = {k: round(v["value"], 4) for k, v in last["metrics"].items()}
        print(f"seed {seed}: exit {res.returncode} correct {last['correct']} "
              f"failed {last['failed']}/{last['attempted']} "
              f"{vals if a.trace == 0 else ''}", flush=True)
    names = list(runs[0]["printed"])
    summary = {n: summarize([r["printed"][n] for r in runs if n in r["printed"]])
               for n in names}
    print(f"{'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} bound")
    for n, s in summary.items():
        print(f"{n:34s} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} "
              f"{s['spread']:8.4f} {bounds.get(n, '-')}")
    if a.json:
        a.json.write_text(json.dumps({"workload": a.workload, "trace": a.trace,
                                      "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if all(r["exit"] == 0 and r["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
