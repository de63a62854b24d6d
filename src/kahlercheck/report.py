"""Report artifacts: JSON (array of check records), CSV summary, and a
human-readable table.  Records are sorted deterministically; the only
fields that vary between identical runs are the runtime measurements.
The JSON is strict: a non-finite number is written as null.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from .conventions import manifest_hash

SCHEMA_VERSION = 2

CSV_COLUMNS = [
    "check_id", "fixture", "seed", "status", "residual_sup", "residual_l2",
    "tolerance", "runtime_ms",
]


def sort_key(rec: dict):
    return (rec["check_id"], rec["fixture"], rec["seed"])


def report_dict(records: list[dict]) -> dict:
    records = sorted(records, key=sort_key)
    counts = {"pass": 0, "fail": 0, "skipped-with-reason": 0}
    for r in records:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
    return {
        "schema_version": SCHEMA_VERSION,
        "manifest_hash": manifest_hash(),
        "summary": counts,
        "results": records,
    }


def _finite_or_null(value):
    """``value`` with every non-finite float in it, at any depth of dicts
    and lists, replaced by None: JSON has no NaN or infinity."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def write_json(records: list[dict], path: Path) -> dict:
    rep = report_dict(records)
    text = json.dumps(_finite_or_null(rep), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")
    return rep


def write_csv(records: list[dict], path: Path):
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for rec in sorted(records, key=sort_key):
            writer.writerow({k: rec.get(k) for k in CSV_COLUMNS})


def format_table(records: list[dict]) -> str:
    out = io.StringIO()
    hdr = f"{'check':14s} {'fixture':7s} {'status':19s} {'residual':>11s} {'tol':>8s}"
    out.write(hdr + "\n" + "-" * len(hdr) + "\n")
    for rec in sorted(records, key=sort_key):
        res = rec["residual_sup"]
        res_s = f"{res:.3e}" if res == res else "nan"
        out.write(
            f"{rec['check_id']:14s} {rec['fixture']:7s} {rec['status']:19s} "
            f"{res_s:>11s} {rec['tolerance']:>8.0e}\n"
        )
        if rec["status"] != "pass":
            out.write(f"    reason: {rec['reason']}\n")
    rep = report_dict(records)
    out.write(
        f"\n{rep['summary'].get('pass', 0)} passed, "
        f"{rep['summary'].get('fail', 0)} failed, "
        f"{rep['summary'].get('skipped-with-reason', 0)} skipped "
        f"(manifest {rep['manifest_hash']})\n"
    )
    return out.getvalue()
