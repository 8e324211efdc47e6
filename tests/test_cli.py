"""Reporting helpers, tolerance table, and command-line behavior."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bachlab
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
    for bad in (0.0, -1e-3, math.inf, -math.inf, math.nan, True, "1e-3"):
        with pytest.raises(tolerances.ToleranceError,
                           match="finite and positive"):
            tolerances.resolve({"identity": bad})


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


def _strict_loads(text: str):
    """JSON as a strict parser reads it: a bare NaN or Infinity raises."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=reject)


def test_non_finite_values_are_written_as_strings():
    value = {"a": np.float64(math.nan), "b": [1.5, math.inf, -math.inf]}
    rec = report.check_record("x", value, 1e-9, True)
    assert rec["value"]["b"][1] == math.inf and not rec["pass"]
    text = report.canonical_json(rec)
    assert _strict_loads(text)["value"] == {
        "a": "NaN", "b": [1.5, "Infinity", "-Infinity"]}
    assert report.dumps(value, indent=2) == json.dumps(
        {"a": "NaN", "b": [1.5, "Infinity", "-Infinity"]}, indent=2)
    # a finite report's text is unchanged
    assert report.canonical_json({"b": 1, "a": [1.0, 2.5]}) == \
        '{"a":[1.0,2.5],"b":1}'


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


@pytest.mark.parametrize("name, i, j, text", [
    ("r2_x_h2", 3, 3, "r^2/y_2^2"),
    ("line_x_berger", 0, 0, "1"),
    ("conformal_sphere_bump", 0, 0, "exp(2*(0.2*cos(th)))*(r^2)"),
])
def test_catalog_show_prints_composed_texts(capsys, name, i, j, text):
    # derived charts print their factors' texts as written, renamed
    assert main(["catalog", "show", name]) == 0
    assert json.loads(capsys.readouterr().out)["metric"][i][j] == text


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_curvature_point_must_be_finite(capsys, value):
    code = main(["curvature", "--manifold", "round_sphere_2",
                 "--point", f"th={value},ph=0.3"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "'th' must be finite" in err


def test_curvature_manifold_from_document(tmp_path, capsys):
    spec = {"name": "my_space", "factors": [
        {"kind": "round_sphere", "params": {"n": 2, "r": 2.0}}]}
    path = tmp_path / "man.json"
    path.write_text(json.dumps(spec))
    assert main(["curvature", "--manifold", str(path),
                 "--point", "th=1.0,ph=0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["quantities"]["scalar"] - 0.5) <= 1e-12


def _conformal_sphere(tmp_path, u: str) -> str:
    path = tmp_path / "man.json"
    path.write_text(json.dumps({"factors": [
        {"kind": "conformal_round_sphere", "params": {"u": u}}]}))
    return str(path)


def test_curvature_rejects_a_literal_that_overflows(tmp_path, capsys):
    path = _conformal_sphere(tmp_path, "1e999*0 + 0.1*cos(th)")
    assert main(["curvature", "--manifold", path,
                 "--point", "th=1.0,ph=0.5"]) == 2
    out, err = capsys.readouterr()
    # the error names the field that holds the text
    assert out == "" and err == ("error: factors[0].params.u: number '1e999' "
                                 "overflows a float (at offset 0)\n")


@pytest.mark.parametrize("u, message", [
    # inf * 0 is NaN in every coefficient of the conformal factor
    ("1e300*1e300*0 + 0.1*cos(th)", "curvature quantity 'gamma' is not "
                                    "finite at the point"),
    # exp(2u) overflows in the jet series
    ("1000", "math range error"),
])
def test_curvature_fails_closed_on_a_numerical_failure(tmp_path, capsys, u,
                                                       message):
    path = _conformal_sphere(tmp_path, u)
    assert main(["curvature", "--manifold", path,
                 "--point", "th=1.0,ph=0.5"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: numerical failure: {message}\n"


def test_curvature_point_validation(capsys):
    bad = {"th=0.7": "point is missing ph",
           "th=0.7,zz=1.0": "unknown coordinate 'zz'",
           "th=x,ph=1": "bad number for coordinate 'th'",
           "0.7,0.3": "point entries look like coord=value",
           "th=0.5,th=0.7,ph=0.1": "coordinate 'th' is given twice"}
    for text, message in bad.items():
        assert main(["curvature", "--manifold", "round_sphere_2",
                     "--point", text]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


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
    ([True, 3], "resolution needs whole numbers"),
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


@pytest.mark.parametrize("iid, doc, message", [
    ("yano", {"resolution": [3, 3]}, "unknown case fields"),
    ("thm32", {"count": 10}, "unknown case fields"),
    ("lemma48", {"X": ["0", "0"]}, "unknown case fields"),
    ("lemma35", {"count": "7"}, "count needs a whole number"),
    ("bochner", {"count": 7.9}, "count needs a whole number"),
    ("bochner", {"count": True}, "count needs a whole number"),
])
def test_check_identity_rejects_fields_that_would_do_nothing(
        tmp_path, capsys, iid, doc, message):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "identity", "--id", iid,
                 "--case", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("iid, doc, message", [
    ("yano", {"manifold": "flat_torus_2", "X": "00"},
     "X must be a list of expressions"),
    ("lemma35", {"manifold": "flat_torus_2", "T": "ab"},
     "T must be a list of rows of expressions"),
    ("lemma35", {"manifold": "flat_torus_2", "T": ["1", "0"]},
     "T must be a list of rows of expressions"),
    ("yano", {"manifold": "flat_torus_2", "X": ["0", True]},
     "X must be a list of expressions"),
    (None, {"manifold": "r2_x_s2", "X": "xyth", "lambda": 0.0},
     "X must be a list of expressions"),
    (None, {"manifold": "r2_x_s2", "f": "0", "lambda": 0.0, "q": "custom",
            "custom_q": ["0000"] * 4},
     "custom_q must be a list of rows of expressions"),
    (None, {"manifold": "r2_x_s2", "f": "0", "lambda": 0.0, "q": "custom",
            "custom_q": "0"}, "custom_q must be a list of rows"),
    (None, {"manifold": "r2_x_s2", "f": "0", "lambda": True},
     "lambda must be a number"),
    ("bochner", {"h": ["0.5*cos(th)"]}, "h must be one expression"),
    ("thm32", {"phi": ["0.3*cos(th)"]}, "phi must be one expression"),
    (None, {"manifold": "r2_x_s2", "X": ["0", "0", "0", "0"], "phi": ["x"]},
     "phi must be one expression"),
    (None, {"manifold": "r2_x_s2", "f": ["x", "y"], "lambda": 0.0},
     "f must be one expression"),
])
def test_check_rejects_mistyped_case_fields(tmp_path, capsys, iid, doc,
                                            message):
    # a string is not a list of its one-letter expressions, and a boolean
    # is not the number 1
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    args = (["check", "identity", "--id", iid] if iid
            else ["check", "soliton", "--count", "2"])
    assert main(args + ["--case", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_check_soliton_lambda_must_be_finite(tmp_path, capsys):
    # JSON reads 1e400 as inf
    path = tmp_path / "case.json"
    path.write_text('{"manifold": "r2_x_s2", "f": "0", "lambda": 1e400}')
    assert main(["check", "soliton", "--count", "2",
                 "--case", str(path)]) == 2
    assert "lambda must be a number, and finite" in capsys.readouterr().err


@pytest.mark.parametrize("manifold", [
    {"factors": [5]},
    {"factors": 5},
    {"factors": [{"kind": "round_sphere", "params": [1, 2]}]},
    {"factors": [{"kind": "flat_torus", "params": {"lengths": 5}}]},
    {"factors": [{"kind": "euclidean", "params": {"n": True}}]},
    {"factors": [{"kind": ["line"]}]},
    {"name": 5, "factors": [{"kind": "line"}]},
])
def test_check_manifold_documents_fail_closed(tmp_path, capsys, manifold):
    # exit 1 means a check failed its gate; a malformed document is a
    # usage error, never a traceback or a 1-dim chart
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"manifold": manifold, "X": ["0"]}))
    assert main(["check", "identity", "--id", "yano",
                 "--case", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_check_tol_must_be_finite_and_positive(tmp_path, capsys):
    # an infinite gate would pass any finite residual
    case = tmp_path / "sol.json"
    case.write_text(json.dumps({"manifold": "r2_x_s2", "f": "0",
                                "lambda": 0.0}))
    for argv in (["check", "identity", "--id", "yano"],
                 ["check", "soliton", "--example", "s4-trivial"],
                 ["check", "soliton", "--case", str(case)]):
        for tol in ("inf", "nan", "0"):
            assert main(argv + ["--tol", tol]) == 2, (argv, tol)
            assert "finite and positive" in capsys.readouterr().err


def test_errors_name_the_manifold_the_document_names(tmp_path, capsys):
    # a one-factor document's name is its chart's name, in errors too
    path = tmp_path / "case.json"
    path.write_text(json.dumps({
        "manifold": {"name": "my_patch",
                     "factors": [{"kind": "hyperbolic_2"}]},
        "X": ["0", "0"], "phi": "0"}))
    assert main(["check", "identity", "--id", "thm32",
                 "--case", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: integral identities need a compact chart; 'my_patch' is an "
        "open patch\n")


def test_case_manifold_errors_are_one_rule(tmp_path, capsys):
    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps({"manifold": 3}))
    soliton = tmp_path / "soliton.json"
    soliton.write_text(json.dumps({"manifold": 3, "f": "0", "lambda": 0.0}))
    assert main(["check", "identity", "--id", "yano",
                 "--case", str(identity)]) == 2
    from_identity = capsys.readouterr().err
    assert main(["check", "soliton", "--case", str(soliton)]) == 2
    from_soliton = capsys.readouterr().err
    assert from_identity == from_soliton
    assert "manifold must be a catalog name or a manifold document" \
        in from_soliton


@pytest.mark.parametrize("kind, doc", [
    ("identity", {"manifold": "s2_x_t2", "X": ["0", "0", "1", "0"],
                  "phi": "1e300*1e300*0 + cos(th)",
                  "resolution": [6, 6, 4, 4]}),
    ("soliton", {"manifold": "r2_x_s2", "f": "0",
                 "phi": "1e300*1e300*0 + x"}),
])
def test_check_fails_closed_on_a_value_that_is_not_finite(tmp_path, capsys,
                                                          kind, doc):
    # inf * 0 is NaN: a numerical failure, named, and no NumPy warning
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    out_path = tmp_path / "rep.json"
    args = (["check", "identity", "--id", "thm32"] if kind == "identity"
            else ["check", "soliton", "--count", "2"])
    assert main(args + ["--case", str(path), "--out", str(out_path)]) == 3
    out, err = capsys.readouterr()
    check_id = "identity/thm32" if kind == "identity" else "soliton/case"
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: numerical failure: check {check_id} "
                          f"gave a value that is not finite")
    # the report is strict JSON: its NaN is the string "NaN", which
    # report.sup turns into an infinity in the soliton's sup
    rec = _strict_loads(out_path.read_text())["checks"][0]
    assert rec["check_id"] == check_id and rec["pass"] is False
    assert rec["value"] == ({"imbalance1": "NaN", "imbalance2": "NaN"}
                            if kind == "identity" else "Infinity")


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


@pytest.mark.parametrize("interval, message", [
    ("0.1,inf", "--interval hi must be finite: 'inf'"),
    ("nan,2", "--interval lo must be finite: 'nan'"),
    ("0.1,x", "bad number for --interval hi: 'x'"),
])
def test_solve_berger_interval_must_be_finite(capsys, interval, message):
    # an infinite bound once reached the bracket scan as NaN brackets
    assert main(["solve", "berger", f"--interval={interval}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


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


@pytest.mark.parametrize("doc, message", [
    ({"s0": [], "c": [1.0]}, "at least one S0 and one c"),
    ({"s0": [0.0], "c": []}, "at least one S0 and one c"),
    ({"s0": {"lo": 0.0, "hi": 1.0, "count": 2.9}, "c": [0.0]},
     "s0 grid count must be a whole number"),
    ({"s0": [0.0], "c": {"lo": 0.0, "hi": 1.0, "count": True}},
     "c grid count must be a whole number"),
    ({"s0": [2.0], "c": [4.0 / 3.0], "s_range_tol": math.inf},
     "finite and positive"),
    # out-of-range integrator controls would reclassify the round cap
    ({"s0": [2.0], "c": [4.0 / 3.0], "rtol": -1},
     "scan field 'rtol' must be finite and positive"),
    ({"s0": [2.0], "c": [4.0 / 3.0], "delta": math.nan},
     "scan field 'delta' must be finite and positive"),
    ({"s0": [2.0], "c": [4.0 / 3.0], "rtol": math.nan},
     "scan field 'rtol' must be finite and positive"),
])
def test_ode_scan_rejects_configs_that_cannot_fail(tmp_path, capsys, doc,
                                                   message):
    # zero cells, or an infinite S-range gate, would corroborate anything;
    # 2.9 is no count of cells
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps(doc))
    assert main(["ode", "scan", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


def test_suite_scan_of_zero_cells_is_rejected():
    # what `suite all --cells 0` runs; a ValueError exits 2
    with pytest.raises(ValueError, match="at least one S0 and one c"):
        suite._ode_checks(tolerances.resolve(), 0)


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


def test_every_suite_record_goes_through_check(monkeypatch):
    calls = []
    check = suite._check

    def counted(checks, check_id, tolerance):
        calls.append(check_id)
        return check(checks, check_id, tolerance)

    monkeypatch.setattr(suite, "_check", counted)
    rep = suite.run_suite(soliton_count=2, scan_cells=2)
    assert calls == [rec["check_id"] for rec in rep["checks"]]
    assert len(calls) == 28


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


@pytest.mark.parametrize("key, failed", [
    ("factor_constancy", {"products/lambda-sign/circle",
                          "products/lambda-sign/line", "soliton/berger-root",
                          "soliton/round-berger-lambda-zero"}),
    ("conformal_gate", {"identity/yano", "identity/be", "identity/thm38"}),
    ("rigidity_c_spread", {"identity/lemma48"}),
])
def test_suite_records_a_violated_hypothesis_as_a_failed_check(
        tmp_path, capsys, key, failed):
    out_path = tmp_path / "suite.json"
    assert main(["suite", "all", "--tol", f"{key}=1e-300",
                 "--out", str(out_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 29
    assert lines[-1] == f"{28 - len(failed)}/28 checks passed"
    assert {line.split()[1] for line in lines[:-1]
            if line.startswith("FAIL")} == failed
    for rec in json.loads(out_path.read_text())["checks"]:
        if rec["check_id"] in failed:
            assert rec["value"] is None and not rec["pass"]
            assert rec["detail"]["error"]


def test_suite_tol_override_validation(capsys):
    assert main(["suite", "all", "--tol", "nope"]) == 2
    assert main(["suite", "all", "--tol", "bogus=1e-3"]) == 2
    assert main(["suite", "all", "--tol", "soliton=inf"]) == 2
    capsys.readouterr()
    assert main(["suite", "all", "--tol", "soliton=1e-7",
                 "--tol", "soliton=1e-300"]) == 2
    assert capsys.readouterr().err == \
        "error: tolerance 'soliton' is given twice\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "bachlab" in capsys.readouterr().out


# ----------------------------------------------------------------------
# packaging
# ----------------------------------------------------------------------
def test_no_module_imports_scipy():
    # the runtime is NumPy and mpmath; SciPy is only a test reference
    code = (
        "import importlib, pkgutil, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import bachlab\n"
        "names = [m.name for m in pkgutil.walk_packages(bachlab.__path__, "
        "'bachlab.')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "assert 'bachlab.cli' in names and 'bachlab.roots' in names\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n")
    src = str(Path(bachlab.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
