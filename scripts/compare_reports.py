#!/usr/bin/env python3
"""Compare two kahlercheck report.json files with ``runtime_ms`` removed.

    python scripts/compare_reports.py A/report.json B/report.json

Exits 0 when the reports are equal apart from each record's ``runtime_ms``.
Otherwise prints every difference, one line per (check_id, fixture, field)
of a record, with a differing ``details`` key named as ``details.<key>``,
and exits 1.  A file that cannot be read as JSON exits 2.
"""

import argparse
import json
import sys
from pathlib import Path


def _same(a, b) -> bool:
    # compared as text, so that NaN equals NaN
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _field_differences(x, y, prefix: str = "") -> list:
    """``(field, value in x, value in y)`` for every key on which two dicts
    differ; ``details`` is compared key by key."""
    out = []
    for key in sorted((set(x) | set(y)) - {"runtime_ms"}):
        a, b = x.get(key), y.get(key)
        if key == "details" and isinstance(a, dict) and isinstance(b, dict):
            out += _field_differences(a, b, "details.")
        elif not _same(a, b):
            out.append((prefix + key, a, b))
    return out


def differences(a: dict, b: dict) -> list:
    """Every difference between two reports, as printable lines; empty when
    they agree once ``runtime_ms`` is ignored."""
    ra, rb = a.get("results", []), b.get("results", [])
    if len(ra) != len(rb):
        return [f"results: {len(ra)} records against {len(rb)}"]
    out = []
    for x, y in zip(ra, rb):
        where = (x.get("check_id"), x.get("fixture"))
        if where != (y.get("check_id"), y.get("fixture")):
            out.append(f"record order: {where} against {(y.get('check_id'), y.get('fixture'))}")
            continue
        out += [f"({where[0]}, {where[1]}, {field}): {u!r} != {v!r}"
                for field, u, v in _field_differences(x, y)]
    rest = [{k: v for k, v in r.items() if k != "results"} for r in (a, b)]
    return out + [f"{field}: {u!r} != {v!r}" for field, u, v in _field_differences(*rest)]


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
    diff = differences(*reports)
    if not diff:
        print(f"equal apart from runtime_ms ({len(reports[0].get('results', []))} records)")
        return 0
    print(f"reports differ in {len(diff)} fields:")
    for line in diff:
        print(line)
    return 1


if __name__ == "__main__":
    sys.exit(main())
