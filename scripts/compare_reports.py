#!/usr/bin/env python3
"""Compare two kahlercheck report.json files with ``runtime_ms`` removed.

    python scripts/compare_reports.py A/report.json B/report.json

Exits 0 when the reports are equal apart from each record's ``runtime_ms``.
Otherwise prints the first difference, as (check_id, fixture, field) for a
record, and exits 1.  A file that cannot be read as JSON exits 2.
"""

import argparse
import json
import sys
from pathlib import Path


def _same(a, b) -> bool:
    # compared as text, so that NaN equals NaN
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def first_difference(a: dict, b: dict) -> str | None:
    """The first difference between two reports, or None when they agree
    once ``runtime_ms`` is ignored."""
    ra, rb = a.get("results", []), b.get("results", [])
    if len(ra) != len(rb):
        return f"results: {len(ra)} records against {len(rb)}"
    for x, y in zip(ra, rb):
        where = (x.get("check_id"), x.get("fixture"))
        if where != (y.get("check_id"), y.get("fixture")):
            return f"record order: {where} against {(y.get('check_id'), y.get('fixture'))}"
        for key in sorted((set(x) | set(y)) - {"runtime_ms"}):
            if not _same(x.get(key), y.get(key)):
                return f"({where[0]}, {where[1]}, {key}): {x.get(key)!r} != {y.get(key)!r}"
    for key in sorted((set(a) | set(b)) - {"results"}):
        if not _same(a.get(key), b.get(key)):
            return f"{key}: {a.get(key)!r} != {b.get(key)!r}"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args(argv)
    try:
        reports = [json.loads(Path(p).read_text()) for p in (args.a, args.b)]
    except (OSError, ValueError) as exc:
        print(f"cannot read report: {exc}", file=sys.stderr)
        return 2
    if not all(isinstance(r, dict) for r in reports):
        print("cannot read report: not a JSON object", file=sys.stderr)
        return 2
    diff = first_difference(*reports)
    if diff is None:
        print(f"equal apart from runtime_ms ({len(reports[0].get('results', []))} records)")
        return 0
    print(f"reports differ at {diff}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
