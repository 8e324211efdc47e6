"""Soliton residual machinery: named examples, profiles, parameter solve."""

import numpy as np
import pytest

from bachlab import charts, solitons, tolerances
from bachlab.curvature import values
from bachlab.solitons import (ResidualReport, SolitonError, SolitonSpec,
                              bach_soliton_residual, berger_condition_scalar,
                              extended_q_residual, named_example,
                              quadratic_profile_check, solve_berger_soliton,
                              splitting_spotcheck, surface_conformal_field)


# ----------------------------------------------------------------------
# spec construction and validation
# ----------------------------------------------------------------------
def test_spec_validation_errors():
    man = charts.get_example("r2_x_s2")
    with pytest.raises(SolitonError, match="exactly one of X"):
        SolitonSpec(manifold=man, lam=0.0)
    with pytest.raises(SolitonError, match="exactly one of X"):
        SolitonSpec(manifold=man, potential="x", x_exprs=("0",) * 4, lam=0.0)
    with pytest.raises(SolitonError, match="phi and lambda"):
        SolitonSpec(manifold=man, potential="x")
    with pytest.raises(SolitonError, match="unknown q"):
        SolitonSpec(manifold=man, potential="x", lam=0.0, q="torus")
    with pytest.raises(SolitonError, match="custom_q"):
        SolitonSpec(manifold=man, potential="x", lam=0.0, q="custom")
    with pytest.raises(SolitonError, match="components"):
        SolitonSpec(manifold=man, x_exprs=("0", "0"), lam=0.0)
    spec = SolitonSpec(manifold=man, potential="x", lam=0.0)
    assert spec.gradient and not spec.extended


def test_spec_from_doc():
    doc = {"manifold": "r2_x_s2", "f": "-(x^2 + y^2)/12",
           "lambda": -1.0 / 12.0}
    spec = SolitonSpec.from_doc(doc)
    assert spec.manifold.name == "r2_x_s2"
    assert spec.q == "bach_flow" and spec.gradient
    inline = {"manifold": {"name": "m", "factors": [
        {"kind": "round_sphere", "params": {"n": 2}},
        {"kind": "flat_torus", "params": {"lengths": [6.0, 7.0]}}]},
        "X": ["0", "0", "0", "0"], "phi": "0"}
    spec2 = SolitonSpec.from_doc(inline)
    assert spec2.extended and spec2.manifold.dim == 4
    with pytest.raises(SolitonError, match="unknown soliton fields"):
        SolitonSpec.from_doc({**doc, "extra": 1})
    with pytest.raises(SolitonError, match="lambda must be a number"):
        SolitonSpec.from_doc({"manifold": "r2_x_s2", "f": "x",
                              "lambda": "big"})
    with pytest.raises(SolitonError, match="name or a document"):
        SolitonSpec.from_doc({"f": "x", "lambda": 0.0})
    with pytest.raises(charts.ChartError):
        SolitonSpec.from_doc({**doc, "manifold": "nope"})


# ----------------------------------------------------------------------
# extended residual: structural zero cases
# ----------------------------------------------------------------------
def test_killing_field_zero_q_zero_phi():
    man = charts.single(charts.round_sphere(2))
    spec = SolitonSpec(manifold=man, x_exprs=("0", "1"), lam=0.0, q="zero")
    rep = extended_q_residual(man, spec, count=10)
    assert rep.sup <= 1e-13 and rep.passed


def test_constructed_q_is_identically_zero():
    man = charts.get_example("s2_x_t2")
    spec = SolitonSpec(
        manifold=man, q="constructed",
        x_exprs=("0.3*cos(th)", "0.2*sin(ph)", "0.1*cos(t0)", "0.4"),
        phi="0.7*sin(th)*cos(t1)")
    rep = extended_q_residual(man, spec, count=5)
    assert rep.sup <= 1e-15


def test_conformal_field_case_on_round_sphere():
    man = charts.single(charts.round_sphere(2))
    spec = SolitonSpec(manifold=man, potential="cos(th)", phi="-cos(th)",
                       q="zero")
    rep = extended_q_residual(man, spec, count=10)
    assert rep.sup <= 1e-12


def test_custom_q_matches_zero_selector():
    man = charts.get_example("r2_x_s2")
    zeros = tuple(tuple("0" for _ in range(4)) for _ in range(4))
    a = extended_q_residual(
        man, SolitonSpec(manifold=man, potential="x*y", lam=0.1, q="custom",
                         custom_q=zeros), count=3)
    b = extended_q_residual(
        man, SolitonSpec(manifold=man, potential="x*y", lam=0.1, q="zero"),
        count=3)
    assert np.array_equal(a.residuals, b.residuals)


def test_report_summary_fields():
    man = charts.single(charts.round_sphere(2))
    spec = SolitonSpec(manifold=man, x_exprs=("0", "1"), lam=0.0, q="zero")
    rep = extended_q_residual(man, spec, count=4, label="killing")
    s = rep.summary()
    assert s["label"] == "killing" and s["passed"] is True
    assert s["points"] == len(rep.norms) and s["sup"] == rep.sup


# ----------------------------------------------------------------------
# named flow-soliton examples
# ----------------------------------------------------------------------
def test_flat_factor_soliton_examples():
    for name in ("ho-r2s2", "ho-r2h2"):
        rep = named_example(name, count=12)
        assert rep.sup <= 1e-12, name
        assert rep.passed


def test_flat_factor_literal_constants_fail():
    # the opposite-normalization constants are kept as named variants and
    # must fail under this engine's conventions
    for name in ("ho-r2s2-literal", "ho-r2h2-literal"):
        rep = named_example(name, count=6)
        assert rep.sup > 0.4 and not rep.passed, name


def test_round_sphere_4_trivial_example():
    rep = named_example("s4-trivial", count=6)
    assert rep.passed and rep.sup <= 1e-7


def test_berger_line_example():
    rep = named_example("berger-line", count=8)
    assert rep.passed and rep.sup <= 1e-8


def test_named_example_gates_come_from_the_tolerance_table(monkeypatch):
    monkeypatch.setitem(tolerances.DEFAULTS, "soliton_gradient_product",
                        2e-9)
    monkeypatch.setitem(tolerances.DEFAULTS, "soliton", 3e-7)
    gates = {name: build()["tol"]
             for name, build in solitons.EXAMPLES.items()}
    assert gates == {"ho-r2s2": 2e-9, "ho-r2h2": 2e-9,
                     "ho-r2s2-literal": 2e-9, "ho-r2h2-literal": 2e-9,
                     "s4-trivial": 3e-7, "berger-line": 3e-7}


def test_named_example_unknown():
    with pytest.raises(SolitonError, match="unknown soliton example"):
        named_example("ho-r2s3")


def test_lambda_form_equals_extended_form():
    # (1/2)L_X g = (1/2)(B + (1/12)Lap(S) g) + lam g  is the same equation
    # as the extended form with q = B and phi = lam + (1/24)Lap(S)
    chart = charts.conformal(charts.get_example("s2_x_s2").chart,
                             "0.2*cos(th) + 0.1*sin(th_2)")
    man = charts.single(chart)
    lam = 0.3
    pts = charts.residual_sample_points(man, 4, grid_cap=16)[:6]
    a = bach_soliton_residual(man, lam, potential="0.2*cos(th)*cos(ph)",
                              points=pts)
    spec = SolitonSpec(
        manifold=man, potential="0.2*cos(th)*cos(ph)", q="bach",
        phi=lambda fr: lam + float(values(fr.lap_scalar)) / 24.0)
    b = extended_q_residual(man, spec, points=pts)
    assert np.allclose(a.residuals, b.residuals, atol=1e-13)
    assert a.sup > 1e-3  # the data is not a soliton; agreement is the point


def test_bach_soliton_needs_dim_4():
    man = charts.single(charts.round_sphere(3))
    with pytest.raises(SolitonError, match="n = 4"):
        bach_soliton_residual(man, 0.0, x_exprs=("0", "0", "0"))


# ----------------------------------------------------------------------
# quadratic profiles on line x N^3
# ----------------------------------------------------------------------
def test_profile_round_sphere_forces_linear():
    man = charts.product([charts.line(4.0), charts.round_sphere(3)],
                         name="line_x_s3")
    out = quadratic_profile_check(man, lam=0.0, a=0.3, b=-1.0, count=6)
    assert out["passed"]
    assert out["lambda_formula"] == 0.0
    assert out["residual"].sup <= 1e-10
    bad = quadratic_profile_check(man, lam=0.1, count=4)
    assert not bad["passed"] and bad["lambda_deviation"] > 0.09


def test_profile_flat_torus_lambda_zero():
    man = charts.product([charts.line(4.0), charts.flat_torus((5.0, 6.0, 7.0))],
                         name="line_x_t3")
    out = quadratic_profile_check(man, lam=0.0, count=4)
    assert out["passed"] and out["lambda_formula"] == 0.0


def test_profile_off_root_berger_fails_only_residual():
    man = charts.get_example("line_x_berger")  # a = 1.5: not the root
    fc = charts.berger_sphere(1.5)
    from bachlab.products import FactorCurvature, line_product_lambda
    lam = line_product_lambda(FactorCurvature.at(fc, fc.center()))
    out = quadratic_profile_check(man, lam=lam, count=4)
    assert out["lambda_deviation"] <= 1e-12
    assert out["profile_second_derivative_deviation"] <= 1e-12
    assert out["traced_identity_deviation"] <= 1e-9
    assert not out["residual"].passed and out["residual"].sup > 1.0


def test_profile_structure_errors():
    with pytest.raises(SolitonError, match="line x N"):
        quadratic_profile_check(charts.get_example("r2_x_s2"), 0.0)
    with pytest.raises(SolitonError, match="not a circle"):
        quadratic_profile_check(charts.get_example("circle_x_berger"), 0.0)
    bumpy = charts.product(
        [charts.line(4.0),
         charts.conformal(charts.round_sphere(3), "0.2*cos(ch)")],
        name="line_x_bumpy")
    with pytest.raises(SolitonError, match="non-constant"):
        quadratic_profile_check(bumpy, 0.0, count=4)


# ----------------------------------------------------------------------
# squashed-sphere parameter solve
# ----------------------------------------------------------------------
def test_condition_scalar_signs():
    assert abs(berger_condition_scalar(1.0)) <= 1e-10
    assert berger_condition_scalar(0.7) > 0.5
    assert berger_condition_scalar(1.5) < -10.0
    assert berger_condition_scalar(0.3) < -0.5


def test_solver_finds_half():
    out = solve_berger_soliton(interval=(0.2, 1.6), scan=28)
    assert out["outcome"] == "root"
    assert abs(out["a_star"] - 0.5) <= 1e-10
    assert abs(out["lambda_star"] + 0.25) <= 1e-10
    assert out["round_root_included"]
    assert out["residual_sup"] <= 1e-7 and out["passed"]
    assert abs(out["factor_scalar_curvature"] - 7.5) <= 1e-10


def test_solver_no_bracket_above_one():
    out = solve_berger_soliton(interval=(1.05, 3.0), scan=12)
    assert out["outcome"] == "no bracket"
    assert out["a_star"] is None and out["roots"] == []


def test_solver_default_interval_takes_few_evaluations(monkeypatch):
    calls = []
    condition = solitons.berger_condition_scalar

    def counted(a):
        calls.append(a)
        return condition(a)

    monkeypatch.setattr(solitons, "berger_condition_scalar", counted)
    out = solve_berger_soliton()
    assert out["outcome"] == "root" and out["passed"]
    assert abs(out["a_star"] - 0.5) <= 1e-12
    assert len(calls) <= 150


def test_solver_nan_region_forms_no_bracket(monkeypatch):
    # the condition is positive on (1/2, 1); a NaN next to a positive
    # value is no sign change and must not be refined into a root
    condition = solitons.berger_condition_scalar
    monkeypatch.setattr(solitons, "berger_condition_scalar",
                        lambda a: np.nan if a < 0.72 else condition(a))
    out = solve_berger_soliton(interval=(0.6, 0.95), scan=7)
    assert out["outcome"] == "no bracket"
    assert out["roots"] == []


def test_solver_interval_validation():
    with pytest.raises(SolitonError, match="0 < lo < hi"):
        solve_berger_soliton(interval=(-1.0, 2.0))


# ----------------------------------------------------------------------
# conformal correction field on surface products
# ----------------------------------------------------------------------
def test_c_field_on_flat_factor_soliton():
    man = charts.get_example("r2_x_s2")
    spec = SolitonSpec(manifold=man, potential="-(x^2 + y^2)/12",
                       lam=-1.0 / 12.0)
    out = surface_conformal_field(man, spec, count=6)
    assert out["extended_residual_sup"] <= 1e-12
    assert out["offblock_sup"] <= 1e-12
    assert out["tracefree_sup"] <= 1e-12
    assert out["identity_sup"] <= 1e-12
    # C = grad f lives on the flat factor: conformal with rho_K = -1/6,
    # Killing (rho_L = 0) on the sphere factor
    assert np.allclose(out["rho_fit"][:, 0], -1.0 / 6.0, atol=1e-12)
    assert np.allclose(out["rho_fit"][:, 1], 0.0, atol=1e-12)
    assert np.allclose(out["rho_fit"], out["rho_formula"], atol=1e-12)
    # C has no sphere component, so the forced phi formula on that side
    # must reproduce the actual constant
    assert np.allclose(out["phi_if_c_perp"][:, 1], -1.0 / 12.0, atol=1e-12)


def test_c_field_killing_on_round_product():
    man = charts.get_example("s2_x_s2")
    spec = SolitonSpec(manifold=man, x_exprs=("0", "1", "0", "0"), lam=0.0)
    out = surface_conformal_field(man, spec, count=5)
    assert out["extended_residual_sup"] <= 1e-11
    assert np.allclose(out["c_field"][:, 1], 1.0)  # C = X, nothing added
    assert out["offblock_sup"] <= 1e-12
    assert np.abs(out["rho_fit"]).max() <= 1e-12


def test_c_field_identity_holds_off_soliton():
    # the block decomposition of (1/2) L_C g equals the closed-form rho's
    # plus the extended residual for arbitrary (X, phi) data; this pins the
    # 1/12 correction coefficient on curvature-varying factors
    k = charts.conformal_round_sphere("0.3*cos(th)")
    l = charts.conformal(charts.flat_torus((6.0, 7.0)), "0.2*sin(t0)")
    man = charts.product([k, l], name="bumpy_product")
    spec = SolitonSpec(
        manifold=man, phi="0.05*cos(th) + 0.02*sin(t0)",
        x_exprs=("0.2*sin(th)*cos(ph)", "0.1*cos(th)", "0.05*sin(t0)", "0"))
    out = surface_conformal_field(man, spec, count=5)
    assert out["identity_sup"] <= 1e-12
    assert out["extended_residual_sup"] > 0.1  # data is far from a soliton
    literal = surface_conformal_field(man, spec, count=5,
                                      coefficient=-1.0 / 3.0)
    assert literal["identity_sup"] > 1e-2


def test_c_field_structure_error():
    man = charts.get_example("line_x_berger")
    spec = SolitonSpec(manifold=man, potential="t", lam=0.0)
    with pytest.raises(SolitonError, match="two surfaces"):
        surface_conformal_field(man, spec)


def test_c_field_rejects_other_flow_tensors():
    man = charts.get_example("r2_x_s2")
    for extra in ({"q": "zero"}, {"q": "bach"}, {"q": "constructed"},
                  {"q": "custom", "custom_q": (("0",) * 4,) * 4}):
        spec = SolitonSpec(manifold=man, potential="-(x^2 + y^2)/12",
                           lam=-1.0 / 12.0, **extra)
        with pytest.raises(SolitonError, match="bach_flow"):
            surface_conformal_field(man, spec, count=1)


# ----------------------------------------------------------------------
# splitting spot-check and sampling
# ----------------------------------------------------------------------
def test_splitting_spotcheck():
    man = charts.get_example("r2_x_s2")
    out = splitting_spotcheck(man, "x^2 + cos(th)", "x*cos(th)", count=5)
    assert out["split_mixed_sup"] <= 1e-13
    assert out["control_mixed_sup"] > 0.1
    const = splitting_spotcheck(man, "3.5", count=3)
    assert const["split_mixed_sup"] == 0.0
    assert const["control_mixed_sup"] is None
    with pytest.raises(SolitonError, match="at least two factors"):
        splitting_spotcheck(charts.single(charts.round_sphere(2)), "th")


def test_residual_sample_points():
    open_man = charts.get_example("r2_x_s2")
    pts = charts.residual_sample_points(open_man, 20)
    assert pts.shape == (20, 4)
    compact = charts.get_example("s2_x_s2")
    pts2 = charts.residual_sample_points(compact, 20, grid_cap=81)
    assert len(pts2) == 20 + 81
    assert np.array_equal(pts2, charts.residual_sample_points(
        compact, 20, grid_cap=81))
