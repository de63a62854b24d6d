"""Acceptance gate: one full run through the CLI entry point, then every
criterion asserted from the report at its stated tolerance.  Each criterion
prints a single PASS/FAIL line (run with -s to see them live)."""

import json
import time

import numpy as np
import pytest

from kahlercheck.cli import main

CRITERIA = []


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    t0 = time.perf_counter()
    code = main(["run", "--suite", "all", "--out", str(out), "--quiet"])
    wall = time.perf_counter() - t0
    rep = json.loads((out / "report.json").read_text())
    by_key = {(r["check_id"], r["fixture"]): r for r in rep["results"]}
    return {"code": code, "wall": wall, "report": rep, "by_key": by_key,
            "out": out}


def _criterion(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    CRITERIA.append(line)
    assert ok, line


def _select(rep, prefix=None, fixture=None, suite_ids=None):
    out = []
    for r in rep["results"]:
        if prefix and not r["check_id"].startswith(prefix):
            continue
        if fixture and r["fixture"] not in fixture:
            continue
        if suite_ids and r["check_id"] not in suite_ids:
            continue
        out.append(r)
    return out


def _runtime_s(records):
    return sum(r["runtime_ms"] for r in records) / 1e3


def test_criterion_1_flat_identity(full_run):
    recs = _select(full_run["report"], prefix="ID-", fixture={"FLAT2"})
    assert len(recs) >= 25
    worst = max(r["residual_sup"] for r in recs)
    secs = _runtime_s(recs)
    ok = all(r["status"] == "pass" for r in recs) and worst <= 1e-12 and secs <= 10
    _criterion(1, "flat identity suite", ok,
               f"{len(recs)} checks, worst {worst:.2e}, {secs:.1f}s")


def test_criterion_2_curved_identity(full_run):
    recs = _select(full_run["report"], prefix="ID-",
                   fixture={"PERT2", "RIEM4", "KAH4", "FS"})
    required = {"ID-DIV-EV", "ID-DIV-TR", "ID-HW-REL", "ID-DBAR3", "ID-MG",
                "ID-MC-EQUIV"}
    present = {r["check_id"] for r in recs}
    worst = max(r["residual_sup"] for r in recs)
    secs = _runtime_s(recs)
    ok = (required <= present
          and all(r["status"] == "pass" for r in recs)
          and worst <= 1e-8 and secs <= 60)
    _criterion(2, "curved identity suite", ok,
               f"{len(recs)} checks, worst {worst:.2e}, {secs:.1f}s")


def test_criterion_3_variation_suite(full_run):
    recs = _select(full_run["report"], prefix="V-")
    secs = _runtime_s(recs)
    failures = [r for r in recs if r["status"] == "fail"]
    skips = {r["check_id"] for r in recs if r["status"] == "skipped-with-reason"}
    first = [r for r in recs if r["status"] == "pass"
             and r["check_id"] not in ("V-HESS", "V-HESS-F", "V-SECORD")]
    second = [r for r in recs if r["status"] == "pass"
              and r["check_id"] in ("V-HESS", "V-HESS-F", "V-SECORD")]
    reasons_ok = all(r["reason"] for r in recs
                     if r["status"] == "skipped-with-reason")
    ok = (not failures
          and max(r["residual_sup"] for r in first) <= 1e-6
          and max(r["residual_sup"] for r in second) <= 1e-5
          and skips <= {"V-KUR1", "V-FUNDCX"} and reasons_ok
          and secs <= 240)
    _criterion(3, "variation suite", ok,
               f"{len(recs)} checks, skips {sorted(skips)}, {secs:.1f}s")


def test_criterion_4_kappa_protocol(full_run):
    flat = full_run["by_key"][("V-HESS", "FLAT2")]
    spreads = [full_run["by_key"][("V-HESS", f)]["details"]["kappa_independence"]
               for f in ("FLAT2", "PERT2", "RIEM4", "KAH4")]
    ok = (flat["status"] == "pass" and flat["residual_sup"] <= 1e-6
          and max(spreads) <= 1e-8)
    _criterion(4, "second-variation kappa protocol", ok,
               f"flat {flat['residual_sup']:.2e}, spread {max(spreads):.2e}")


def test_criterion_5_spectral_structure(full_run):
    lam = full_run["by_key"][("S-LAMBDA", "FS")]
    pk = full_run["by_key"][("S-PKER", "FS")]
    pi = full_run["by_key"][("S-PI2", "FS")]
    ok = (lam["status"] == "pass"
          and lam["details"]["kernel_residual"] <= 1e-8
          and lam["details"]["gram_rank"] == 3
          and pk["status"] == "pass" and pk["residual_sup"] <= 1e-7
          and pi["status"] == "pass" and pi["residual_sup"] <= 1e-9)
    _criterion(5, "spectral structure on the round fixture", ok,
               f"kernel {lam['details']['kernel_residual']:.2e}, "
               f"rank {lam['details']['gram_rank']}")


def test_criterion_6_soliton_and_obstruction(full_run):
    sol = full_run["by_key"][("S-SOLITON", "FS")]
    char = full_run["by_key"][("S-CHAR", "FS")]
    phi = full_run["by_key"][("S-PHI", "FS")]
    integ = full_run["by_key"][("S-INT", "FS")]
    ok = (sol["status"] == "pass" and sol["residual_sup"] <= 1e-9
          and char["status"] == "pass" and char["residual_sup"] <= 1e-9
          and phi["details"]["max_value"] <= 1e-9
          and phi["details"]["two_route_gap"] <= 1e-8
          and phi["details"]["pointwise_mechanism"] <= 1e-9
          and integ["details"]["cone_integral"] <= 1e-10)
    _criterion(6, "soliton and obstruction functional", ok,
               f"phi {phi['details']['max_value']:.2e}, "
               f"bridge {phi['details']['two_route_gap']:.2e}")


def test_criterion_7_bochner_and_dh(full_run):
    wb = full_run["by_key"][("S-WBOCH", "FS")]
    dh = full_run["by_key"][("S-DH", "FS")]
    ok = (wb["status"] == "pass" and wb["residual_sup"] <= 1e-7
          and dh["status"] == "pass" and dh["residual_sup"] <= 1e-5)
    _criterion(7, "weighted complex Bochner and the H-derivative map", ok,
               f"bochner {wb['residual_sup']:.2e}, dH {dh['residual_sup']:.2e}")


def test_criterion_8_gauge_invariance(full_run):
    gauge = full_run["by_key"][("S-GAUGE", "FS")]
    curve_ids = ("V-GDOT", "V-NJ", "V-SECORD", "V-KURSYM")
    curve_ok = all(full_run["by_key"][(c, "FS")]["status"] == "pass"
                   for c in curve_ids)
    ok = (gauge["status"] == "pass"
          and gauge["details"]["H_bar_along_orbit"] <= 1e-7
          and curve_ok)
    _criterion(8, "gauge invariance along the orbit", ok,
               f"H residual {gauge['details']['H_bar_along_orbit']:.2e}")


def test_criterion_9_full_run(full_run, tmp_path):
    rep = full_run["report"]
    ok_run = (full_run["code"] == 0 and full_run["wall"] <= 300
              and rep["summary"].get("fail", 0) == 0
              and len(rep["results"]) >= 40)
    # determinism: replay a stratified sample and compare records
    sample = ["ID-DIV-TR", "V-ADJ", "S-STAB"]
    code = main(["run", "--check", ",".join(sample), "--fixture",
                 "PERT2", "--out", str(tmp_path), "--quiet"])
    replay = json.loads((tmp_path / "report.json").read_text())
    det = code == 0
    for r in replay["results"]:
        ref = dict(full_run["by_key"][(r["check_id"], r["fixture"])])
        cand = dict(r)
        ref.pop("runtime_ms"), cand.pop("runtime_ms")
        det = det and (json.dumps(ref, sort_keys=True) ==
                       json.dumps(cand, sort_keys=True))
    ok = ok_run and det
    _criterion(9, "full deterministic run", ok,
               f"{len(rep['results'])} checks in {full_run['wall']:.0f}s, "
               f"exit {full_run['code']}, deterministic={det}")


def test_criterion_10_every_record_names_its_worst_pair(full_run):
    recs = [r for r in full_run["report"]["results"] if "worst" in r["details"]]
    bad = [(r["check_id"], r["fixture"]) for r in recs
           if r["details"][r["details"]["worst"]] != r["residual_sup"]
           or not r["residual_l2"] <= r["residual_sup"]]
    # an exact zero that is not vacuous: both sides of the duality are of order 4
    selfadj = full_run["by_key"][("ID-HW-SELFADJ", "KAH4")]["details"]["scale"]
    unnamed = [(r["check_id"], r["fixture"]) for r in full_run["report"]["results"]
               if r["status"] != "skipped-with-reason" and "worst" not in r["details"]]
    ok = not unnamed and not bad and selfadj > 1
    _criterion(10, "worst pair and scale", ok,
               f"{len(recs)} records with pairs, mismatched {bad}, unnamed {unnamed}, "
               f"ID-HW-SELFADJ/KAH4 scale {selfadj:.3f}")
