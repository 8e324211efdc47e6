"""Reporting helpers, tolerance table, and command-line behavior."""

import json

import numpy as np
import pytest

from bachlab import report, solitons, suite, tolerances
from bachlab.cli import main


# ----------------------------------------------------------------------
# tolerance defaults table
# ----------------------------------------------------------------------
def test_resolve_returns_fresh_copy():
    tols = tolerances.resolve()
    assert tols == tolerances.DEFAULTS
    tols["identity"] = 1.0
    assert tolerances.DEFAULTS["identity"] != 1.0


def test_resolve_applies_overrides():
    tols = tolerances.resolve({"identity": 1e-5, "soliton": 2e-7})
    assert tols["identity"] == 1e-5
    assert tols["soliton"] == 2e-7
    assert tols["product_cross"] == tolerances.DEFAULTS["product_cross"]


def test_resolve_validation():
    with pytest.raises(tolerances.ToleranceError, match="unknown"):
        tolerances.resolve({"bogus": 1e-3})
    with pytest.raises(tolerances.ToleranceError, match="positive"):
        tolerances.resolve({"identity": 0.0})


# ----------------------------------------------------------------------
# report serialization
# ----------------------------------------------------------------------
def test_jsonable_conversions():
    out = report.jsonable({
        "a": np.float64(1.5), "b": np.int32(7), "c": np.bool_(True),
        "d": np.array([[1.0, 2.0]]), "e": (1, 2), "f": {"z", "a"},
    })
    assert out == {"a": 1.5, "b": 7, "c": True, "d": [[1.0, 2.0]],
                   "e": [1, 2], "f": ["a", "z"]}
    assert isinstance(out["a"], float) and isinstance(out["b"], int)


def test_jsonable_uses_summary_hook():
    class Result:
        def summary(self):
            return {"sup": 0.5}

    assert report.jsonable({"r": Result()}) == {"r": {"sup": 0.5}}
    with pytest.raises(TypeError, match="cannot serialize"):
        report.jsonable(object())


def test_canonical_json_is_sorted_and_compact():
    text = report.canonical_json({"b": 1, "a": [1.0, 2.5]})
    assert text == '{"a":[1.0,2.5],"b":1}'
    dig = report.digest({"b": 1, "a": [1.0, 2.5]})
    assert len(dig) == 12
    assert dig == report.digest({"a": [1.0, 2.5], "b": 1})


def test_check_record_optional_fields():
    rec = report.check_record("x/y", 0.1, 1e-6, False)
    assert set(rec) == {"check_id", "value", "tolerance", "pass"}
    rec2 = report.check_record("x/y", 0.1, 1e-6, True, expected=0.0,
                               inputs={"seed": 0}, detail={"n": 3})
    assert rec2["expected"] == 0.0
    assert len(rec2["inputs_digest"]) == 12
    assert rec2["detail"] == {"n": 3}


def test_build_and_write_report(tmp_path):
    checks = [report.check_record("a", 0.0, 1.0, True),
              report.check_record("b", 2.0, 1.0, False)]
    rep = report.build_report({"seed": 0}, checks)
    assert rep["tool"] == "bachlab"
    assert rep["summary"] == {"checks": 2, "passed": 1, "failed": 1}
    path = tmp_path / "rep.json"
    text = report.write_report(rep, path)
    assert text.endswith("\n")
    assert path.read_text() == text
    assert json.loads(text)["summary"]["failed"] == 1


# ----------------------------------------------------------------------
# CLI: catalog and curvature
# ----------------------------------------------------------------------
def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert "round_sphere_2" in out and "r2_x_s2" in out


def test_catalog_show(capsys):
    assert main(["catalog", "show", "round_sphere_2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 2
    assert doc["params"] == {"r": 1.0}
    assert "volume_closed_form" in doc


def test_catalog_show_unknown(capsys):
    assert main(["catalog", "show", "nonsense"]) == 2
    assert "unknown catalog manifold" in capsys.readouterr().err


def test_curvature_dump(capsys):
    code = main(["curvature", "--manifold", "round_sphere_2",
                 "--point", "th=0.7,ph=0.3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["point"] == [0.7, 0.3]
    assert abs(doc["quantities"]["scalar"] - 2.0) <= 1e-12


def test_curvature_manifold_from_document(tmp_path, capsys):
    spec = {"name": "my_space", "factors": [
        {"kind": "round_sphere", "params": {"n": 2, "r": 2.0}}]}
    path = tmp_path / "man.json"
    path.write_text(json.dumps(spec))
    assert main(["curvature", "--manifold", str(path),
                 "--point", "th=1.0,ph=0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["quantities"]["scalar"] - 0.5) <= 1e-12


def test_curvature_point_validation(capsys):
    bad = ["th=0.7", "th=0.7,zz=1.0", "th=x,ph=1", "0.7,0.3"]
    for text in bad:
        assert main(["curvature", "--manifold", "round_sphere_2",
                     "--point", text]) == 2
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# CLI: checks
# ----------------------------------------------------------------------
def test_check_identity_pass(capsys, tmp_path):
    out_path = tmp_path / "rep.json"
    code = main(["check", "identity", "--id", "bochner",
                 "--out", str(out_path)])
    assert code == 0
    assert "PASS identity/bochner" in capsys.readouterr().out
    rep = json.loads(out_path.read_text())
    assert rep["summary"]["failed"] == 0
    assert rep["checks"][0]["check_id"] == "identity/bochner"


def test_check_identity_tolerance_failure(capsys):
    for iid in ("bochner", "lemma48"):
        assert main(["check", "identity", "--id", iid,
                     "--tol", "1e-30"]) == 1
        assert f"FAIL identity/{iid}" in capsys.readouterr().out


def test_check_identity_bad_case(tmp_path, capsys):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"tensor": []}))
    assert main(["check", "identity", "--id", "lemma35",
                 "--case", str(path)]) == 2
    assert "unknown case fields" in capsys.readouterr().err


@pytest.mark.parametrize("resolution", [[24, 0], [24, -1]])
def test_check_identity_resolution_below_one(tmp_path, capsys, resolution):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"resolution": resolution}))
    assert main(["check", "identity", "--id", "thm32",
                 "--case", str(path)]) == 2
    assert "at least one node per axis" in capsys.readouterr().err


@pytest.mark.parametrize("resolution, message", [
    ([12, 12, 12], "resolution needs 2 axis counts"),
    (12.0, "resolution needs whole numbers"),
    ([12.5, 12], "resolution needs whole numbers"),
    ("12", "resolution needs whole numbers"),
])
def test_check_identity_resolution_that_is_not_axis_counts(
        tmp_path, capsys, resolution, message):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"resolution": resolution}))
    assert main(["check", "identity", "--id", "thm32",
                 "--case", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_check_soliton_count_below_one(capsys):
    # no points would make the sup 0.0, a pass for any data
    assert main(["check", "soliton", "--example", "ho-r2s2-literal",
                 "--count", "0"]) == 2
    assert "at least one point" in capsys.readouterr().err


def test_check_identity_count_below_one(tmp_path, capsys):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"manifold": "hyperbolic_2", "X": ["x", "y"],
                                "T": [["1", "0"], ["0", "1"]], "count": 0}))
    assert main(["check", "identity", "--id", "lemma35",
                 "--case", str(path)]) == 2
    assert "at least one point" in capsys.readouterr().err


@pytest.mark.parametrize("kind, doc", [
    ("soliton", {"manifold": "r2_x_s2", "f": 0, "lambda": 0.0}),
    ("soliton", {"manifold": "r2_x_s2", "X": ["0", "0", "0", "0"],
                 "phi": 0.5}),
    ("identity", {"X": [0, 0]}),
])
def test_check_expression_fields_that_are_not_text(tmp_path, capsys, kind,
                                                   doc):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    args = ["check", kind, "--case", str(path)]
    args += ["--id", "yano"] if kind == "identity" else ["--count", "2"]
    assert main(args) == 2
    assert "not an expression node" in capsys.readouterr().err


def test_check_identity_rejected_hypothesis(tmp_path, capsys):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"manifold": "round_sphere_2",
                                "X": ["0.3*sin(ph)*sin(th)", "0"]}))
    assert main(["check", "identity", "--id", "yano",
                 "--case", str(path)]) == 2
    assert "not conformal" in capsys.readouterr().err


def test_check_soliton_example(capsys, tmp_path):
    out_path = tmp_path / "rep.json"
    code = main(["check", "soliton", "--example", "s4-trivial",
                 "--count", "20", "--out", str(out_path)])
    assert code == 0
    assert "PASS soliton/s4-trivial" in capsys.readouterr().out
    rep = json.loads(out_path.read_text())
    assert rep["config"]["example"] == "s4-trivial"


def test_check_soliton_opposite_constants_fail(capsys):
    assert main(["check", "soliton", "--example", "ho-r2s2-literal",
                 "--count", "20"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_soliton_case_document(tmp_path, capsys):
    doc = {"manifold": "r2_x_s2", "f": "-(x^2 + y^2)/12",
           "lambda": -1.0 / 12.0, "q": "bach_flow"}
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "soliton", "--case", str(path),
                 "--count", "10"]) == 0
    assert "PASS soliton/sol" in capsys.readouterr().out


def test_check_soliton_case_validation(tmp_path, capsys):
    path = tmp_path / "sol.json"
    path.write_text(json.dumps({"manifold": "r2_x_s2", "f": "0",
                                "lambda": 0.0, "frobnicate": 1}))
    assert main(["check", "soliton", "--case", str(path)]) == 2
    assert main(["check", "soliton", "--case",
                 str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


# ----------------------------------------------------------------------
# CLI: solve, ode, suite
# ----------------------------------------------------------------------
def test_solve_berger_root(capsys, tmp_path):
    out_path = tmp_path / "root.json"
    code = main(["solve", "berger", "--interval", "0.2,1.6",
                 "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert abs(doc["a_star"] - 0.5) <= 1e-9
    assert abs(doc["lambda_star"] + 0.25) <= 1e-9
    capsys.readouterr()


def test_solve_berger_no_bracket(capsys):
    assert main(["solve", "berger", "--interval", "1.05,1.6"]) == 3
    capsys.readouterr()


def test_solve_berger_bad_interval(capsys):
    assert main(["solve", "berger", "--interval", "1,2,3"]) == 2
    assert main(["solve", "berger", "--interval=-1.0,2.0"]) == 2
    capsys.readouterr()


def test_ode_scan_cli(tmp_path, capsys):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"s0": [2.0, 0.0], "c": [4.0 / 3.0],
                               "t_max": 8.0}))
    csv_path = tmp_path / "table.csv"
    assert main(["ode", "scan", "--config", str(cfg),
                 "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "S0,c,class,t_close,S_min,S_max"
    assert len(lines) == 3
    json_path = tmp_path / "table.json"
    assert main(["ode", "scan", "--config", str(cfg),
                 "--out", str(json_path)]) == 0
    doc = json.loads(json_path.read_text())
    assert len(doc["rows"]) == 2 and doc["corroborates"] is True
    stdout = capsys.readouterr().out
    assert "corroborates=True" in stdout


def test_ode_scan_bad_config(tmp_path, capsys):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"grid": 3}))
    assert main(["ode", "scan", "--config", str(cfg)]) == 2
    assert "unknown scan fields" in capsys.readouterr().err


def test_suite_all_cli(tmp_path, capsys):
    out_path = tmp_path / "suite.json"
    code = main(["suite", "all", "--count", "6", "--cells", "3",
                 "--out", str(out_path)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "28/28 checks passed" in stdout
    rep = json.loads(out_path.read_text())
    assert rep["summary"] == {"checks": 28, "passed": 28, "failed": 0}
    assert rep["config"]["soliton_count"] == 6
    assert rep["config"]["tolerances"]["identity"] == 1e-7


def test_suite_soliton_gates_follow_tolerance_overrides(monkeypatch):
    overrides = {"soliton": 1e-30, "soliton_gradient_product": 2e-30,
                 "berger_residual": 3e-30}
    # each named example's own gate key, read through its builder
    with monkeypatch.context() as m:
        for key, value in overrides.items():
            m.setitem(tolerances.DEFAULTS, key, value)
        gates = {name: solitons.EXAMPLES[name]()["tol"]
                 for name in solitons.EXAMPLES}
    recs = {rec["check_id"]: rec for rec in suite._soliton_checks(
        tolerances.resolve(overrides), count=2)}
    for name in ("ho-r2s2", "ho-r2h2", "s4-trivial", "berger-line"):
        rec = recs[f"soliton/{name}"]
        assert rec["tolerance"] == gates[name] and not rec["pass"], name
    for cid in ("soliton/berger-root", "soliton/round-berger-lambda-zero"):
        assert not recs[cid]["pass"], cid
    assert recs["soliton/round-berger-lambda-zero"]["tolerance"] == 1e-30


def test_suite_tol_override_validation(capsys):
    assert main(["suite", "all", "--tol", "nope"]) == 2
    assert main(["suite", "all", "--tol", "bogus=1e-3"]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "bachlab" in capsys.readouterr().out
