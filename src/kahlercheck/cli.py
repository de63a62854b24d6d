"""Command-line runner: execute check suites, explain a check, list the
registry, print the conventions manifest.

Exit codes: 0 all executed checks passed (skips are counted separately),
1 at least one check failed, 2 configuration or I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread per process, set before anything imports numpy: with
# ``--jobs`` each worker would otherwise start a BLAS thread per core, and
# the workers would contend for the cores.  A value the user set is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import backends as bk
from . import checks as ck
from .backends import FIXTURE_KINDS
from .catalog import RunOptions
from .conventions import manifest_hash, manifest_json
from .errors import ConfigError
from .geometry import FixtureScope
from .report import format_table, write_csv, write_json

DEFAULT_FIXTURES = FIXTURE_KINDS     # perfbench/probe.py reads this name


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="kahlercheck",
                                description="residual-gated identity verification")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run check suites and write reports")
    run.add_argument("--config", type=Path, help="JSON configuration file")
    run.add_argument("--suite", help="comma list: identity,variation,soliton,obstruction,all")
    run.add_argument("--fixture", help="comma list of fixture names")
    run.add_argument("--check", help="comma list of explicit check ids")
    run.add_argument("--seed", type=int, help="base seed")
    run.add_argument("--out", type=Path, help="output directory")
    run.add_argument("--jobs", type=int, help="parallel worker processes")
    run.add_argument("--quiet", action="store_true")

    exp = sub.add_parser("explain", help="describe a check")
    exp.add_argument("check_id")

    sub.add_parser("list", help="list all checks")
    sub.add_parser("conventions", help="print the conventions manifest")
    return p


def load_config(args) -> dict:
    cfg = {
        "suites": list(ck.SUITES),
        "fixtures": list(DEFAULT_FIXTURES),
        "checks": None,
        "seed": 0,
        "jobs": 1,
        "node_count": 120,
        "out": "reports",
    }
    if args.config:
        try:
            user = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(user) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(user)
    # an empty flag value is the one name '' and fails validation, as in
    # "--check S-LAMBDA,"; it never falls back to the defaults
    if args.suite is not None:
        cfg["suites"] = args.suite.split(",")
    if args.fixture is not None:
        cfg["fixtures"] = args.fixture.split(",")
    if getattr(args, "check", None) is not None:
        cfg["checks"] = args.check.split(",")
    for key in ("seed", "jobs"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if args.out:
        cfg["out"] = str(args.out)
    _validate(cfg)
    return cfg


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _validate(cfg):
    for key in ("suites", "fixtures", "checks"):
        val = cfg[key]
        if not ((val is None and key == "checks") or (val == "all" and key == "suites")
                or (isinstance(val, list) and all(isinstance(x, str) for x in val))):
            raise ConfigError(f"{key} must be a list of names, not {val!r}")
        if val == []:
            # never read as "everything": leave the key out for the default
            raise ConfigError(f"{key} must name at least one, not []")
    if not isinstance(cfg["out"], str):
        raise ConfigError(f"out must be a path, not {cfg['out']!r}")
    suites = cfg["suites"]
    if suites == ["all"] or suites == "all":
        cfg["suites"] = list(ck.SUITES)
    for s in cfg["suites"]:
        if s not in ck.SUITES:
            raise ConfigError(f"unknown suite {s!r}; choose from {ck.SUITES}")
    for f in cfg["fixtures"]:
        if f not in DEFAULT_FIXTURES:
            raise ConfigError(f"unknown fixture {f!r}")
    seen = set()
    for c in cfg["checks"] or ():
        if c not in ck.REGISTRY:
            raise ConfigError(f"unknown check id {c!r}")
        if c in seen:
            raise ConfigError(f"check id {c!r} is given twice")
        seen.add(c)
    if not _is_int(cfg["seed"]) or cfg["seed"] < 0:
        raise ConfigError(f"seed must be an integer >= 0, not {cfg['seed']!r}")
    for key in ("jobs", "node_count"):
        if not _is_int(cfg[key]) or cfg[key] < 1:
            raise ConfigError(f"{key} must be an integer >= 1, not {cfg[key]!r}")


def _task_list(cfg):
    pairs = ck.checks_for(cfg["suites"], cfg["fixtures"], cfg["checks"])
    return [(cid, fx, cfg["seed"], cfg["node_count"]) for cid, fx in pairs]


def _fixture_groups(tasks, jobs: int) -> list:
    """The tasks grouped by fixture, each group in selection order.  While
    there are fewer groups than ``jobs``, the largest group of two or more
    tasks is split into two contiguous runs, so that every worker has one."""
    by_fixture: dict = {}
    for task in tasks:
        by_fixture.setdefault(task[1], []).append(task)
    groups = list(by_fixture.values())
    while len(groups) < jobs:
        big = max(groups, key=len)
        if len(big) < 2:
            break
        k = groups.index(big)
        groups[k:k + 1] = [big[:len(big) // 2], big[len(big) // 2:]]
    return groups


def _run_group(group) -> list:
    """The records of one fixture group's tasks, run in order in one process
    and one ``FixtureScope``: the checks share the fixture's geometry and flow
    families, which are dropped when the last one ends."""
    with FixtureScope(bk.make_fixture(group[0][1])):
        return [ck.run_check(cid, fx, seed, RunOptions(node_count=n)).to_record()
                for cid, fx, seed, n in group]


def cmd_run(args) -> int:
    cfg = load_config(args)
    tasks = _task_list(cfg)
    if not tasks:
        raise ConfigError("no checks selected")
    groups = _fixture_groups(tasks, cfg["jobs"])
    workers = min(cfg["jobs"], len(groups))
    if workers > 1:
        # imported here, so that a serial run never loads it; the pool forks
        # all its workers at once, so it starts no more than there are groups
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            done = list(ex.map(_run_group, groups))
    else:
        done = [_run_group(g) for g in groups]
    # the reports sort their records, so the order of the groups is not seen
    records = [rec for group in done for rec in group]
    outdir = Path(cfg["out"])
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        rep = write_json(records, outdir / "report.json")
        write_csv(records, outdir / "summary.csv")
    except OSError as exc:
        print(f"io-error: cannot write reports: {exc}", file=sys.stderr)
        return 2
    table = format_table(records)
    if not args.quiet:
        print(table, end="")
        print(f"reports written to {outdir}")
    return 1 if rep["summary"].get("fail", 0) else 0


def cmd_explain(args) -> int:
    cid = args.check_id
    if cid not in ck.REGISTRY:
        print(f"not-found: unknown check id {cid!r}", file=sys.stderr)
        return 2
    d = ck.REGISTRY[cid]
    print(f"{d.id}  [{d.suite}]")
    print(f"  identity: {d.formula}")
    print(f"  tag: {d.tag}")
    print(f"  fixtures: {', '.join(d.fixtures)}")
    print(f"  tolerance: {d.tolerance:g}"
          + (f" (flat fixtures: {d.flat_tolerance:g})" if d.flat_tolerance else ""))
    if d.notes:
        print(f"  notes: {d.notes}")
    print(f"  conventions: manifest {manifest_hash()} (see `kahlercheck conventions`)")
    return 0


def cmd_list(_args) -> int:
    by_suite: dict = {}
    for d in ck.REGISTRY.values():
        by_suite.setdefault(d.suite, []).append(d)
    for suite in ck.SUITES:
        print(f"[{suite}]")
        for d in sorted(by_suite.get(suite, []), key=lambda x: x.id):
            print(f"  {d.id:14s} {', '.join(d.fixtures)}")
    return 0


def cmd_conventions(_args) -> int:
    print(manifest_json())
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "explain":
            return cmd_explain(args)
        if args.command == "list":
            return cmd_list(args)
        if args.command == "conventions":
            return cmd_conventions(args)
    except ConfigError as exc:
        print(f"config-error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
