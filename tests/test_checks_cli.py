import concurrent.futures
import dataclasses
import json
import os
import weakref
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kahlercheck import backends as bk
from kahlercheck import catalog as cat
from kahlercheck import checks as ck
from kahlercheck import report
from kahlercheck.catalog import RunOptions
from kahlercheck import cli
from kahlercheck.cli import main
from kahlercheck.conventions import MANIFEST, manifest_hash
from kahlercheck.geometry import FixtureScope, GeometryState


def test_registry_shape():
    assert len(ck.REGISTRY) > 40
    suites = {d.suite for d in ck.REGISTRY.values()}
    assert suites == set(ck.SUITES)
    for d in ck.REGISTRY.values():
        assert d.tolerance > 0
        assert d.fixtures


def _tighten(monkeypatch, check_id, factor=1e-12):
    d = ck.REGISTRY[check_id]
    monkeypatch.setitem(ck.REGISTRY, check_id,
                        dataclasses.replace(d, tolerance=d.tolerance * factor))


def test_run_check_pass_and_fail_gating(monkeypatch):
    r = ck.run_check("ID-SHARP", "FLAT2", 0)
    assert r.status == "pass"
    assert r.residual_sup <= r.tolerance
    assert r.manifest_hash == manifest_hash()
    _tighten(monkeypatch, "ID-DIV-TR")
    tight = ck.run_check("ID-DIV-TR", "PERT2", 0, RunOptions(node_count=40))
    assert tight.status == "fail"
    assert tight.reason.startswith("residual_sup ")
    assert "exceeds tolerance" in tight.reason


# The rows of each fixture set that the registry listed by name before the
# capability requirements: the requirements select the same pairs.
_NAMED_SELECTION = {
    ("FLAT2", "PERT2", "RIEM4", "KAH4", "FS"): [
        "ID-FIXTURE", "ID-QUAD", "ID-COMPAT", "ID-DIVLAP", "ID-DIVINT", "ID-DIV-UA",
        "ID-DIV-UXI", "ID-DIV-A2", "ID-DIV-EV", "ID-DIV-TR", "ID-MG", "ID-FRAME",
        "ID-ADJ-SYM2", "ID-ADJ-ENDO", "ID-LAP-SYM", "ID-LAP-POS", "ID-SHARP", "ID-CONTR",
        "S-PERELMAN"],
    ("FLAT2", "PERT2", "KAH4", "FS"): [
        "ID-BIDEG", "ID-DBARSQ", "ID-ADJ-DBAR", "ID-DBAR3", "ID-HW-REL", "ID-HW-SELFADJ",
        "ID-B2ROUTE", "ID-BSKEW", "ID-BCHAIN", "ID-MC-EQUIV", "ID-MC-EXPL", "ID-LIE-EXT",
        "V-GDOT", "V-NJ", "V-DBARVAR", "V-SECORD", "V-DBARVF", "V-TRANS", "S-BOCHNER",
        "S-STAB"],
    ("FLAT2", "PERT2", "RIEM4", "KAH4"): [
        "V-F", "V-GRAD", "V-ADJ", "V-TRCOV", "V-DIV1", "V-DIV2", "V-SUPER", "V-DH", "V-HESS",
        "V-HESS-F"],
    ("FS",): [
        "ID-CHART", "V-KURSYM", "V-KUR1", "V-FUNDCX", "S-SOLITON", "S-CHAR", "S-LAMBDA",
        "S-PKER", "S-PI2", "S-GMET", "S-TCONE", "S-WBOCH", "S-DH"],
    ("FS", "PERT2"): ["S-GAUGE"],
    ("FS", "KAH4"): ["S-PHI", "S-INT"],
}


def test_capability_requirements_select_the_pairs_that_named_fixtures_did():
    expected = {cid: set(fxs) for fxs, ids in _NAMED_SELECTION.items() for cid in ids}
    assert {cid: set(d.fixtures) for cid, d in ck.REGISTRY.items()} == expected
    assert len(ck.checks_for()) == 234
    # derived in FIXTURE_KINDS order
    assert ck.REGISTRY["S-GAUGE"].fixtures == ("PERT2", "FS")
    assert ck.REGISTRY["S-PHI"].fixtures == ("KAH4", "FS")


# A descriptor of each kind that is not its default, cheap to run
_OTHER_DESCRIPTORS = [{"kind": "FLAT2", "grid": 32},
                      {"kind": "PERT2", "epsilon": 0.16, "grid": 24},
                      {"kind": "RIEM4", "seed": 8}, {"kind": "KAH4", "seed": 12},
                      {"kind": "FS", "n_theta": 12, "n_phi": 24}]


@pytest.mark.parametrize("desc", _OTHER_DESCRIPTORS, ids=lambda d: d["kind"])
def test_every_row_runs_on_a_non_default_descriptor(desc):
    # what a row reads of a fixture is its capabilities, never its name:
    # each row passes, fails on its own residual, or skips with a reason
    fx = bk.make_fixture(desc)
    assert fx is not bk.make_fixture(desc["kind"])
    rows = [cid for cid, d in ck.REGISTRY.items() if fx.caps.satisfies(d.requires)]
    assert rows == [cid for cid, kind in ck.checks_for(ids=list(ck.REGISTRY))
                    if kind == desc["kind"]]
    with FixtureScope(fx):
        records = [ck.run_check(cid, desc, 0) for cid in rows]
    for r in records:
        assert r.fixture == desc["kind"]
        assert not r.reason.startswith("internal-error"), (r.check_id, r.reason)
        assert (r.status in ("pass", "skipped-with-reason")
                or (r.status == "fail" and np.isfinite(r.residual_sup))), (r.check_id, r.reason)
        assert r.status != "skipped-with-reason" or r.reason, r.check_id


def test_registry_holds_every_variation_check():
    ids = {cid for cid, d in ck.REGISTRY.items() if d.suite == "variation"}
    assert ids == {
        "V-F", "V-GRAD", "V-ADJ", "V-TRCOV", "V-DIV1", "V-DIV2", "V-SUPER", "V-DH",
        "V-HESS", "V-HESS-F", "V-GDOT", "V-NJ", "V-DBARVAR", "V-SECORD", "V-DBARVF",
        "V-TRANS", "V-KURSYM", "V-KUR1", "V-FUNDCX",
    }


def test_sides_driver_measures_every_pair():
    s = cat.Sides()
    assert s.measure() == (0.0, 0.0, {})
    s.add("a", np.array([3.0, -4.0]), 0.0)
    # a constant side broadcasts against the array before raveling
    s.add("b", np.full((2, 2, 2), 1.0), np.eye(2))
    s.add("a", np.array([1.0, 1.0]), np.array([1.0, 6.0]))
    s.details["reported"] = 7.0
    sup, l2, details = s.measure()
    # per pair: the sup over every add of the name, and sup(|lhs|, |rhs|)
    assert details["a"] == 5.0 and details["b"] == 1.0
    assert details["worst"] == "a" and details["scale"] == 6.0
    assert details["reported"] == 7.0
    assert sup == s.sup == 5.0
    # the RMS of every compared component, in add order
    gaps = np.array([3, 4, 0, 1, 1, 0, 0, 1, 1, 0, 0, 5], dtype=float)
    assert l2 == np.sqrt(np.mean(gaps * gaps))
    assert l2 <= sup


def test_a_failed_requirement_is_a_pair_of_one_against_zero():
    s = cat.Sides()
    s.require("holds", True, "never read")
    assert s.measure() == (0.0, 0.0, {}) and s.reason == ""
    s.add("tiny", 1e-20, 0.0)
    s.require("rank_3", False, "rank 2")
    sup, l2, details = s.measure()
    assert sup == 1.0 and details["worst"] == "rank_3" and s.reason == "rank 2"


def test_fixture_details_cover_every_check_batch():
    # FS has one check batch per chart; the smallest metric eigenvalue is
    # taken over both, not read off the last one
    fx = bk.make_fixture("FS")
    geom = GeometryState(fx)
    eigs = [float(np.min(np.linalg.eigvalsh(geom.g(b, 0).value)))
            for b in fx.check_nodes(0, RunOptions().node_count)]
    assert len(eigs) == 2 and eigs[0] < eigs[1]
    assert ck.run_check("ID-FIXTURE", "FS", 0).details["min_metric_eig"] == min(eigs)


def test_integral_identity_off_the_shrinker_is_a_skip_with_its_gap():
    # the seeded argument is not harmonic on KAH4, so the identity does not
    # apply: the record is a skip that reports the real gap, not a masked pass
    r = ck.run_check("S-INT", "KAH4", 0)
    assert r.status == "skipped-with-reason"
    assert "harmonic" in r.reason
    d = r.details
    assert set(d) == {"cone_integral", "drift_side", "harmonicity_defect",
                      "integral_identity", "worst", "scale"}
    assert d["worst"] == "integral_identity"
    assert d["harmonicity_defect"] > 1e-3
    assert r.residual_sup >= abs(d["cone_integral"] - d["drift_side"])
    assert r.residual_sup > 0.1


@pytest.mark.parametrize("fields, code", [
    ((), 0), (("residual_sup",), 1), (("runtime_ms",), 0),
    (("residual_sup", "details.identity", "details.scale"), 1),
], ids=["equal", "residual-changed", "runtime-only", "every-difference"])
def test_compare_reports_script(tmp_path, fields, code):
    assert main(["run", "--check", "ID-DIV-TR", "--fixture", "PERT2",
                 "--out", str(tmp_path), "--quiet"]) == 0
    a = tmp_path / "report.json"
    rep = json.loads(a.read_text())
    last = rep["results"][-1]
    for field in fields:
        rec = last["details"] if field.startswith("details.") else last
        rec[field.removeprefix("details.")] *= 2.0
    b = tmp_path / "changed.json"
    b.write_text(json.dumps(rep))
    script = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
    out = subprocess.run([sys.executable, str(script), str(a), str(b)],
                         capture_output=True, text=True)
    assert out.returncode == code, out.stdout + out.stderr
    if code:
        # one line per differing field, a details key by its name, and no
        # dump of the whole details dict
        lines = out.stdout.splitlines()
        assert lines[0] == f"reports differ in {len(fields)} fields:"
        assert [ln.split(":")[0] for ln in lines[1:]] == \
            [f"({last['check_id']}, PERT2, {f})" for f in sorted(fields)]
        assert "worst" not in out.stdout


def test_calibrate_lichnerowicz_script_recovers_the_manifest_coefficient():
    # the script reads the Bochner routes and the curvature helpers by name;
    # on every curved fixture its best (cR, cRic) is the manifest's cR and 0
    root = Path(__file__).resolve().parents[1]
    src = str(Path(bk.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, str(root / "scripts" / "calibrate_lichnerowicz.py")],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    fixtures = [ln.split(":")[0] for ln in lines if not ln.startswith(" ")]
    best = [ln.split() for ln in lines if ln.startswith("  best:")]
    assert fixtures == ["FS", "KAH4", "PERT2"] and len(best) == 3
    cR = MANIFEST["lichnerowicz_cR"]
    for words in best:
        assert words[-2:] == [f"cR={cR:+.1f}", "cRic=+0.0"], words
        assert float(words[2]) < 1e-8, words


def test_scale_reads_the_sides_of_the_shrinker_and_mc_helpers():
    # these helpers return their two sides, so a record's scale is the size
    # of the compared quantities, far above its residual at roundoff
    for check_id, fixture in (("S-STAB", "KAH4"), ("S-BOCHNER", "KAH4"),
                              ("ID-MC-EQUIV", "KAH4"), ("S-LAMBDA", "FS")):
        r = ck.run_check(check_id, fixture, 0)
        assert r.status == "pass", check_id
        assert r.details["scale"] > 1, check_id


@pytest.mark.parametrize("limit, child, code", [(4096, "pass", 0), (1, "pass", 1),
                                               (4096, "raise SystemExit(3)", 3)],
                         ids=["under-limit", "over-limit", "command-failed"])
def test_peak_rss_script(limit, child, code):
    script = Path(__file__).resolve().parents[1] / "scripts" / "peak_rss.py"
    out = subprocess.run([sys.executable, str(script), "--limit-mib", str(limit), "--",
                          sys.executable, "-c", child], capture_output=True, text=True)
    assert out.returncode == code, out.stdout + out.stderr
    assert f"limit {limit:.1f} MiB" in out.stdout


def test_skipped_checks_carry_reasons():
    r = ck.run_check("V-KUR1", "FS", 0, RunOptions(node_count=20))
    assert r.status == "skipped-with-reason"
    assert r.reason


def test_report_roundtrip(tmp_path):
    recs = [ck.run_check("ID-SHARP", "FLAT2", 0).to_record(),
            ck.run_check("ID-CONTR", "FLAT2", 0).to_record()]
    rep = report.write_json(recs, tmp_path / "report.json")
    assert rep["schema_version"] == report.SCHEMA_VERSION
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded["summary"]["pass"] == 2
    report.write_csv(recs, tmp_path / "summary.csv")
    lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
    assert lines[0].startswith("check_id,fixture,seed,status")
    assert len(lines) == 3
    table = report.format_table(recs)
    assert "ID-SHARP" in table and "pass" in table
    assert "reason:" not in table


def test_a_failing_pair_is_named_in_the_record_and_the_table(monkeypatch):
    def second_fails(fixture, seed, opts):
        s = cat.Sides()
        s.add("first", np.zeros(3), 1e-15)
        s.add("second", np.array([1.0, 2.0]), np.array([1.0, 2.5]))
        return s

    d = ck.REGISTRY["ID-SHARP"]
    monkeypatch.setitem(ck.REGISTRY, "ID-SHARP", dataclasses.replace(d, runner=second_fails))
    r = ck.run_check("ID-SHARP", "FLAT2", 0)
    assert r.status == "fail"
    assert r.residual_sup == 0.5 and r.details["worst"] == "second"
    assert r.details["scale"] == 2.5 and r.details["first"] == 1e-15
    assert r.reason == f"residual_sup 5.000e-01 of second exceeds tolerance {r.tolerance:.3e}"
    table = report.format_table([r.to_record()])
    assert f"    reason: {r.reason}\n" in table


def _strip_runtime(rep):
    for r in rep["results"]:
        r.pop("runtime_ms", None)
    return rep


def test_cli_run_deterministic(tmp_path):
    argv = ["run", "--check", "ID-SHARP,ID-CONTR,S-PERELMAN", "--fixture",
            "FLAT2", "--out", str(tmp_path / "a"), "--quiet"]
    assert main(argv) == 0
    argv[argv.index(str(tmp_path / "a"))] = str(tmp_path / "b")
    assert main(argv) == 0
    a = _strip_runtime(json.loads((tmp_path / "a" / "report.json").read_text()))
    b = _strip_runtime(json.loads((tmp_path / "b" / "report.json").read_text()))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_cli_tight_tolerance_forces_failures(monkeypatch, tmp_path):
    _tighten(monkeypatch, "ID-DIV-TR")
    code = main(["run", "--check", "ID-DIV-TR", "--fixture", "PERT2",
                 "--out", str(tmp_path), "--quiet"])
    assert code == 1
    recs = json.loads((tmp_path / "report.json").read_text())["results"]
    fails = [r for r in recs if r["status"] == "fail"]
    assert fails
    for r in fails:
        assert r["reason"].startswith("residual_sup ")
        assert "exceeds tolerance" in r["reason"]


def test_cli_config_file_and_errors(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["identity"], "fixtures": ["FLAT2"],
                               "checks": ["ID-SHARP"], "out": str(tmp_path / "r")}))
    assert main(["run", "--config", str(cfg), "--quiet"]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", "--config", str(bad), "--quiet"]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"frobnicate": 1}))
    assert main(["run", "--config", str(unknown), "--quiet"]) == 2
    assert main(["run", "--check", "NOPE", "--quiet"]) == 2
    assert main(["run", "--suite", "bogus", "--quiet"]) == 2


def test_cli_explain_and_list(capsys):
    assert main(["explain", "V-ADJ"]) == 0
    out = capsys.readouterr().out
    assert "var-adjDer" in out
    assert main(["explain", "ID-DIV-TR"]) == 0
    out = capsys.readouterr().out
    assert "div-Tr" in out
    assert main(["explain", "nope"]) == 2
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for suite in ck.SUITES:
        assert f"[{suite}]" in out


def test_cli_conventions(capsys):
    assert main(["conventions"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data == MANIFEST


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "kahlercheck", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ID-DIV-TR" in proc.stdout


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "3"])
def test_the_cli_pins_blas_threads_before_numpy_unless_the_user_did(preset):
    # a fresh process: the package loads no numpy, so the CLI module sets
    # the thread counts before numpy (and its BLAS) is first imported
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    child = ("import os, sys\n"
             "import kahlercheck\n"
             "before = 'numpy' in sys.modules\n"
             "import kahlercheck.cli\n"
             f"print(before, *(os.environ[v] for v in {BLAS_THREAD_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", preset or "1", "1", "1"]


def test_a_serial_run_never_imports_the_process_pool(tmp_path):
    # a fresh process: only a run with two or more workers loads
    # concurrent.futures (and the logging it imports)
    child = ("import sys\n"
             "from kahlercheck.cli import main\n"
             "loaded = 'concurrent.futures' in sys.modules\n"
             f"code = main(['run', '--check', 'ID-SHARP', '--fixture', 'FLAT2', '--quiet', "
             f"'--out', {str(tmp_path)!r}])\n"
             "print(loaded, code, 'concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "0", "False"]


def test_cli_io_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = main(["run", "--check", "ID-SHARP", "--fixture", "FLAT2",
                 "--out", str(blocker / "sub"), "--quiet"])
    assert code == 2


def test_run_check_turns_unexpected_exceptions_into_failures(monkeypatch, tmp_path):
    def broken(fixture, seed, opts):
        raise ZeroDivisionError("boom")

    d = ck.REGISTRY["ID-SHARP"]
    monkeypatch.setitem(ck.REGISTRY, "ID-SHARP", dataclasses.replace(d, runner=broken))
    r = ck.run_check("ID-SHARP", "FLAT2", 0)
    assert r.status == "fail"
    assert r.reason == "internal-error: ZeroDivisionError: boom"
    assert r.details["raised_at"].startswith("test_checks_cli.py:")
    # the rest of the run goes on and the exit code reports the failure
    assert main(["run", "--check", "ID-SHARP,ID-CONTR", "--fixture", "FLAT2",
                 "--out", str(tmp_path), "--quiet"]) == 1
    rep = json.loads((tmp_path / "report.json").read_text())
    status = {r["check_id"]: r["status"] for r in rep["results"]}
    assert status == {"ID-SHARP": "fail", "ID-CONTR": "pass"}


def test_reports_are_strict_json_with_null_for_non_finite_numbers(monkeypatch, tmp_path):
    def broken(fixture, seed, opts):
        raise ZeroDivisionError("boom")

    def unbounded_detail(fixture, seed, opts):
        s = cat.Sides()
        s.add("identity", np.zeros(2), 0.0)
        s.details["spread"] = float("inf")
        return s

    for cid, runner in (("ID-SHARP", broken), ("ID-CONTR", unbounded_detail)):
        monkeypatch.setitem(ck.REGISTRY, cid, dataclasses.replace(ck.REGISTRY[cid], runner=runner))
    assert main(["run", "--check", "ID-SHARP,ID-CONTR", "--fixture", "FLAT2",
                 "--out", str(tmp_path), "--quiet"]) == 1

    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    rep = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
    rec = {r["check_id"]: r for r in rep["results"]}
    assert rec["ID-SHARP"]["status"] == "fail"
    assert rec["ID-SHARP"]["residual_sup"] is None and rec["ID-SHARP"]["residual_l2"] is None
    assert rec["ID-CONTR"]["status"] == "pass" and rec["ID-CONTR"]["details"]["spread"] is None
    assert "nan" in (tmp_path / "summary.csv").read_text()


def test_id_quad_integrates_a_multi_block_flat2_grid():
    fx = bk.make_fixture({"kind": "FLAT2", "grid": 48})
    assert len(fx.quad_nodes()) == 2
    s = ck.run_quadrature(fx, 0, RunOptions())
    sup, _, details = s.measure()
    tol = ck.REGISTRY["ID-QUAD"].tol_for(fx.caps)
    pairs = ("unit_mass", "projected_mean", "odd_mode", "dirichlet_closed_form")
    assert all(details[p] <= tol for p in pairs) and sup <= tol


@pytest.mark.parametrize("config,argv", [
    ({"fd": {"base_step": 0.01}}, []),
    ({"seed": "x"}, []),
    ({"fd": {"base_step": 0.01, "richardson_levels": -1}}, []),
    ({"node_count": 0}, []),
    ({}, ["--jobs", "0"]),
    ({"tolerances": {"soliton": 2.0}}, []),
    ({"tolerance_scale": 2.0}, []),
    ({}, ["--seed", "-1"]),
    ({"seed": -1}, []),
    (5, []),
    (None, []),
    ([[1]], []),
    ([1], []),
    ("abc", []),
    ({"checks": None, "suites": []}, []),
    ({"checks": None, "suites": ["soliton"], "fixtures": []}, []),
    ({"checks": []}, []),
    ({"checks": ["ID-SHARP", "ID-CONTR", "ID-SHARP"]}, []),
    ({}, ["--check", "ID-SHARP,ID-SHARP"]),
], ids=["partial-fd", "seed-not-int", "negative-richardson", "node-count-zero", "jobs-zero",
        "tolerances-key", "tolerance-scale-key", "negative-seed-flag", "negative-seed-key",
        "top-level-number", "top-level-null", "top-level-nested-list", "top-level-list",
        "top-level-string", "empty-suites", "empty-fixtures", "empty-checks",
        "repeated-check-key", "repeated-check-flag"])
def test_cli_config_contract(tmp_path, capsys, config, argv):
    # a dict is merged into a valid base config; anything else is the whole file
    cfg = tmp_path / "cfg.json"
    if isinstance(config, dict):
        config = {"checks": ["ID-SHARP"], "fixtures": ["FLAT2"],
                  "out": str(tmp_path / "r"), **config}
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r"),
                 "--quiet", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config-error: ")
    if not isinstance(config, dict):
        assert "config must be a JSON object" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv", [["--check", "ID-CONTR,ID-SHARP,ID-SHARP"],
                                  ["--check", "ID-SHARP,ID-CONTR,ID-SHARP", "--jobs", "2"]])
def test_a_repeated_check_id_is_named(tmp_path, capsys, argv):
    assert main(["run", *argv, "--fixture", "FLAT2", "--out", str(tmp_path / "r"),
                 "--quiet"]) == 2
    assert capsys.readouterr().err == "config-error: check id 'ID-SHARP' is given twice\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_cli_unreadable_config_is_a_config_error(tmp_path, capsys, kind):
    cfg = tmp_path
    if kind == "not-utf8":
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes(b'{"seed": "\xe9"}')
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config-error: ")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flag", ["--check", "--fixture", "--suite"])
def test_cli_empty_selection_flag_is_a_config_error(tmp_path, capsys, flag):
    # an empty value names '' and is rejected, never read as "use the defaults"
    assert main(["run", flag, "", "--out", str(tmp_path / "r"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config-error: unknown ")
    assert not (tmp_path / "r").exists()


def test_explicit_check_ids_keep_their_order():
    # pool submission follows this order; suites only select when no ids do
    ids = ["S-PERELMAN", "ID-SHARP", "V-NJ"]
    pairs = ck.checks_for(["identity"], ["FS", "FLAT2"], ids)
    assert list(dict.fromkeys(c for c, _ in pairs)) == ids
    assert {f for _, f in pairs} == {"FS", "FLAT2"}
    assert ck.checks_for() == ck.checks_for(ck.SUITES, bk.FIXTURE_KINDS)
    assert ck.checks_for([], None) == ck.checks_for(None, [], ids) == []


def test_cli_jobs_matches_serial(tmp_path):
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert main(["run", "--check", "ID-SHARP,ID-CONTR", "--fixture", "FLAT2",
                     "--jobs", jobs, "--out", str(out), "--quiet"]) == 0
        reports.append(_strip_runtime(json.loads((out / "report.json").read_text())))
    assert len(reports[0]["results"]) == 2
    assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)


def test_gauge_reports_each_sub_residual_on_its_own():
    # the record residual is the larger of the two; the h-tensor detail is
    # its own maximum, not a running maximum over both sub-checks
    r = ck.run_check("S-GAUGE", "PERT2", 0)
    h = r.details["h_equivariance"]
    h_bar = r.details["H_bar_equivariance"]
    assert r.status == "pass"
    assert h <= r.residual_sup
    assert r.residual_sup == max(h, h_bar)
    assert h != h_bar


def test_gauge_names_the_mean_of_H_as_the_failing_part():
    # on a 24^2 PERT2 grid at seed 3 H itself transports to rounding, and the
    # failure of the normalized H is the drift of its quadrature mean along
    # the flow; the default 48^2 grid resolves that mean
    assert ck.run_check("S-GAUGE", "PERT2", 3).status == "pass"
    r = ck.run_check("S-GAUGE", {"kind": "PERT2", "grid": 24}, 3)
    d = r.details
    assert r.status == "fail"
    assert d["H_pointwise_equivariance"] < 1e-11
    assert d["H_mean_drift"] > 1e-5
    assert d["H_bar_equivariance"] == pytest.approx(d["H_mean_drift"], rel=1e-6)
    assert r.residual_sup == max(d["H_bar_equivariance"], d["h_equivariance"])


def test_flow_selection_with_two_jobs_matches_serial(tmp_path):
    # each worker shares one flow curve across the checks it runs, so this
    # holds only because a cached flow does not depend on which check made it
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert main(["run", "--check", "V-NJ,V-DBARVAR,V-SECORD,V-DBARVF,V-KURSYM",
                     "--fixture", "FS", "--jobs", jobs, "--out", str(out), "--quiet"]) == 0
        reports.append(_strip_runtime(json.loads((out / "report.json").read_text())))
    assert len(reports[0]["results"]) == 5
    assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)


def test_fixture_groups_keep_selection_order_and_split_for_idle_workers():
    tasks = [(cid, fx, 0, 120) for cid, fx in
             [("A", "FS"), ("A", "KAH4"), ("B", "KAH4"), ("C", "FS"), ("D", "KAH4")]]

    def shape(jobs):
        return [[tasks.index(t) for t in g] for g in cli._fixture_groups(tasks, jobs)]

    assert shape(1) == shape(2) == [[0, 3], [1, 2, 4]]
    assert shape(3) == [[0, 3], [1], [2, 4]]
    assert shape(64) == [[0], [3], [1], [2], [4]]


def test_the_pool_starts_no_more_workers_than_fixture_groups(monkeypatch, tmp_path):
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)

    def run(checks, fixtures):
        return main(["run", "--check", checks, "--fixture", fixtures, "--jobs", "64",
                     "--out", str(tmp_path), "--quiet"])

    assert run("ID-SHARP", "FLAT2") == 0
    assert started == []
    assert run("ID-SHARP", "FLAT2,PERT2") == 0
    assert started == [2]
    # four checks on two fixtures: each fixture's pair is split in two
    assert run("ID-SHARP,ID-CONTR", "FLAT2,PERT2") == 0
    assert started == [2, 4]
    recs = json.loads((tmp_path / "report.json").read_text())["results"]
    assert len(recs) == 4


def test_the_run_state_is_released_when_cmd_run_returns(monkeypatch, tmp_path):
    states, families = [], []
    enter, family = FixtureScope.__enter__, cat.make_kahler_family

    def recording_enter(self):
        scope = enter(self)
        states.append(weakref.ref(scope.geometry))
        return scope

    def recording_family(fixture, seed):
        curve = family(fixture, seed)
        families.append(curve)
        return curve

    monkeypatch.setattr(FixtureScope, "__enter__", recording_enter)
    monkeypatch.setattr(cat, "make_kahler_family", recording_family)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"node_count": 20}))
    assert main(["run", "--config", str(cfg), "--check", "V-DBARVAR,V-SECORD",
                 "--fixture", "FS", "--out", str(tmp_path / "r"), "--quiet"]) == 0
    # both checks read the one curve of the group
    assert len(families) == 2 and families[0] is families[1]
    family_ref = weakref.ref(families.pop())
    families.clear()
    assert len(states) == 1
    assert states[0]() is None and family_ref() is None
