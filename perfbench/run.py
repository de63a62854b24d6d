"""kahlercheck benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload identity --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is used from ``src/``
as it is, no build step.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: wall time of a fresh process that imports kahlercheck and
  builds the workload's fixtures (``probe.py``), median of ``SETUP_REPS``;
* ``wall_rel``, ``cpu_rel``: wall time and CPU time of one ``kahlercheck
  run`` subprocess (the CLI entry point) for the workload's selection and
  the seed, its pool workers included, each divided by the same time of the
  median pass of a fixed reference computation (``reference.py``, one copy
  per pool worker, at once) timed right before and right after the
  invocation.  The host's speed drifts by up to a factor of two within
  minutes; the quotient cancels that drift, and the reference runs no code
  of the program;
* ``peak_rss_mb``: the largest resident set of any process of the tree.

It also prints, outside the JSON result, the raw ``wall_s`` and ``cpu_s``,
the reference pass's ``ref_wall_s``, ``check_p50_ms`` (median per-record
``runtime_ms``), ``check_fail_frac`` and, where at least ten records lie
beyond it, ``check_p90_ms``.

The run repeats the invocation while another one fits in ``--seconds``
(always at least one) and reports medians.

``--trace 1`` reports the per-layer metrics: one untraced invocation (for
``cli.pool_busy_frac`` and the untraced record times), then the same
selection serially and in-process with every layer boundary wrapped in a
span (``traced.py``), then the kernel microbenchmarks (``micro.py``).

Every run checks the records: the CLI exits 0, every selected (check,
fixture) pair has a record, and each record is ``pass`` or
``skipped-with-reason`` with a reason.  Anything else is printed by name and
counted in ``failed``.  The last line of standard output is the result as
JSON; the lines before it give every metric with its unit and the machine.
Children run with BLAS and OpenMP pinned to one thread and never with more
pool workers than usable CPUs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 5
RUN_LIMIT_S = 170.0          # whole run, children included
P90_TAIL = 10                # records that must lie beyond a reported p90
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclasses.dataclass
class Child:
    """Outcome of one waited-for child process tree."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(argv: list[str], deadline: float, stdout_path: Path | None = None) -> Child:
    """Run ``argv`` in its own session and wait for it with ``wait4``.

    The resource usage covers the child and every descendant it waited for
    (the CLI joins its pool workers), so ``cpu_s`` is the tree's user plus
    system time and ``rss_mb`` its largest resident set.  The whole session
    is killed if ``deadline`` passes.
    """
    out = stdout_path.open("w") if stdout_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.DEVNULL, start_new_session=True)

        def kill():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        kill()      # reap nothing, but leave no stray member of the session
    finally:
        if stdout_path:
            out.close()
    text = stdout_path.read_text() if stdout_path else ""
    return Child(proc.returncode, wall, ru.ru_utime + ru.ru_stime,
                 ru.ru_maxrss / 1024.0, text)


def reference_passes(copies: int, deadline: float) -> list:
    """(wall, cpu) of every pass of ``copies`` reference processes run at once."""
    procs = [subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                              cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, start_new_session=True)
             for _ in range(copies)]
    passes = []
    try:
        for proc in procs:
            out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
            if proc.returncode != 0:
                raise RuntimeError(f"reference exited {proc.returncode}")
            passes += json.loads(out)
    finally:
        for proc in procs:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    return passes


def last_json(text: str):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def gate(pairs: list, code: int, records: list, seed: int) -> list[str]:
    """Names of everything wrong with one invocation's records."""
    bad = []
    by_pair = {(r["check_id"], r["fixture"]): r for r in records}
    for cid, fx in pairs:
        r = by_pair.get((cid, fx))
        if r is None:
            bad.append(f"{cid}/{fx}: missing record")
        elif r["status"] == "skipped-with-reason":
            if not str(r.get("reason") or "").strip():
                bad.append(f"{cid}/{fx}: skipped without a reason")
        elif r["status"] != "pass":
            bad.append(f"{cid}/{fx}: {r['status']} {r.get('reason') or ''}".rstrip())
        elif r.get("seed") != seed:
            bad.append(f"{cid}/{fx}: record for seed {r.get('seed')}")
    extra = set(by_pair) - {tuple(p) for p in pairs}
    bad.extend(f"{cid}/{fx}: record not selected" for cid, fx in sorted(extra))
    if code != 0 and not bad:
        bad.append(f"exit code {code}")
    return bad


def read_records(outdir: Path) -> list:
    try:
        return json.loads((outdir / "report.json").read_text())["results"]
    except (OSError, ValueError, KeyError):
        return []


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def percentile_tail(values: list[float]) -> float | None:
    """p90 of ``values`` if at least ``P90_TAIL`` values lie beyond it."""
    if len(values) < 2:
        return None
    p90 = statistics.quantiles(values, n=10)[-1]
    return p90 if sum(v > p90 for v in values) >= P90_TAIL else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not (ROOT / "src" / "kahlercheck" / "cli.py").is_file():
        print(f"error: no kahlercheck sources under {ROOT / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S
    w = WORKLOADS[a.workload]
    jobs = min(w["jobs"], usable_cpus())
    work = ROOT / ".bench_out" / a.workload
    work.mkdir(parents=True, exist_ok=True)
    py = sys.executable

    # set-up: fresh processes that import the package and build the fixtures
    setups = []
    probe = None
    for _ in range(SETUP_REPS if a.trace == 0 else 1):
        ch = spawn([py, str(HERE / "probe.py"), "--workload", a.workload], deadline,
                   work / "probe.out")
        if ch.code != 0:
            print(f"error: set-up probe exited {ch.code}", file=sys.stderr)
            return 1
        setups.append(ch.wall_s)
        probe = last_json(ch.stdout)
    pairs = probe["pairs"]

    cli_argv = [py, "-m", "kahlercheck", "run", *w["args"], "--seed", str(a.seed),
                "--jobs", str(jobs), "--quiet"]
    invocations, runtimes, failures = [], [], []
    refs = []       # reference passes before the first and after each invocation
    attempted = 0
    loop_start = time.perf_counter()
    if a.trace == 0:
        refs.append(reference_passes(jobs, deadline))
    while True:
        step_start = time.perf_counter()
        outdir = work / "cli"
        (outdir / "report.json").unlink(missing_ok=True)
        ch = spawn(cli_argv + ["--out", str(outdir)], deadline)
        if a.trace == 0:
            refs.append(reference_passes(jobs, deadline))
        records = read_records(outdir)
        attempted += len(pairs)
        failures += gate(pairs, ch.code, records, a.seed)
        invocations.append(ch)
        runtimes += [r["runtime_ms"] for r in records]
        now = time.perf_counter()
        step = now - step_start
        if (a.trace or now + step > loop_start + a.seconds
                or now + 2 * step > deadline):
            break

    metrics: dict[str, tuple[float, str]] = {}
    env = {"nproc": usable_cpus(), "cpu": cpu_model(),
           "python": platform.python_version(), "numpy": probe["numpy"],
           "commit": git_commit(), "jobs": jobs, "invocations": len(invocations)}
    if a.trace == 0:
        # each invocation over the median reference pass before and after it
        around = [before + after for before, after in zip(refs, refs[1:])]

        def rel(field: str, i: int) -> float:
            return statistics.median(
                getattr(c, field) / statistics.median(p[i] for p in passes)
                for c, passes in zip(invocations, around))

        metrics["wall_rel"] = (rel("wall_s", 0), "ratio")
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["cpu_rel"] = (rel("cpu_s", 1), "ratio")
        metrics["peak_rss_mb"] = (max(c.rss_mb for c in invocations), "MiB")
        shown = dict(metrics)
        shown["wall_s"] = (statistics.median(c.wall_s for c in invocations), "s")
        shown["cpu_s"] = (statistics.median(c.cpu_s for c in invocations), "s")
        shown["ref_wall_s"] = (statistics.median(p[0] for r in refs for p in r), "s")
        shown["check_p50_ms"] = (statistics.median(runtimes) if runtimes else 0.0, "ms")
        shown["check_fail_frac"] = (len(failures) / attempted, "ratio")
        p90 = percentile_tail(runtimes)
        if p90 is not None:
            shown["check_p90_ms"] = (p90, "ms")
    else:
        cli_run = invocations[0]
        metrics["cli.pool_busy_frac"] = (
            sum(runtimes) / 1e3 / (jobs * cli_run.wall_s), "ratio")
        ch = spawn([py, str(HERE / "traced.py"), "--workload", a.workload,
                    "--seed", str(a.seed), "--out", str(work / "traced")], deadline,
                   work / "traced.out")
        traced = last_json(ch.stdout) if ch.code == 0 else None
        if traced is None:
            failures.append(f"traced run exited {ch.code}")
        else:
            attempted += len(pairs)
            failures += [f"traced {b}" for b in
                         gate(pairs, traced["exit"], traced["records"], a.seed)]
            metrics.update({k: tuple(v) for k, v in traced["metrics"].items()})
            wall = traced["wall_s"]
            metrics["variation.flow.share"] = (
                metrics["variation.flow.total_s"][0] / wall, "ratio")
            traced_ms = sum(r["runtime_ms"] for r in traced["records"])
            metrics["trace.overhead_frac"] = (
                traced_ms / sum(runtimes) - 1.0 if runtimes else 0.0, "ratio")
        ch = spawn([py, str(HERE / "micro.py"), "--seed", str(a.seed)], deadline,
                   work / "micro.out")
        micro = last_json(ch.stdout) if ch.code == 0 else None
        if micro is None:
            failures.append(f"microbenchmarks exited {ch.code}")
        else:
            metrics.update({k: tuple(v) for k, v in micro.items()})
        shown = metrics

    for name, (value, unit) in shown.items():
        print(f"{a.workload:15s} {name:34s} {value:16.6f} {unit}")
    print("env: " + " ".join(f"{k}={v!r}" if isinstance(v, str) and " " in v
                             else f"{k}={v}" for k, v in env.items()))
    for f in failures:
        print(f"FAILED {f}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work / f"result-seed{a.seed}-trace{a.trace}.json").write_text(json.dumps(
        {"env": env, "failures": failures, "printed": shown, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
