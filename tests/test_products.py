"""Closed-form product Bach components vs the general pipeline."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bachlab
from bachlab import charts, products, suite, tolerances
from bachlab.curvature import BASE_ORDER, CurvatureFrame
from bachlab.products import (FactorCurvature, ProductFormulaError,
                              bach_line_cross_3, bach_surface_product,
                              circle_product_lambda, einstein_residual_norm2,
                              line_product_lambda, line_soliton_obstruction,
                              surface_c_invariant)
from conftest import count_frames
from test_solitons import same_bits


def fc_at(chart, pt=None):
    return FactorCurvature.at(chart, chart.center() if pt is None else pt)


# ----------------------------------------------------------------------
# line x N^3 family
# ----------------------------------------------------------------------
def test_line_cross_round_sphere3_vanishes():
    comp = bach_line_cross_3(fc_at(charts.round_sphere(3), [1.0, 1.2, 0.8]))
    assert abs(comp["B_tt"]) <= 1e-12
    assert np.abs(comp["B_YZ"]).max() <= 1e-11


def test_line_cross_flat_vanishes():
    comp = bach_line_cross_3(fc_at(charts.flat_torus((2.0, 3.0, 4.0))))
    assert comp["B_tt"] == 0.0
    assert np.abs(comp["B_YZ"]).max() == 0.0


def test_line_cross_formula_is_trace_free_on_synthetic_data():
    # arbitrary N-data subject only to the trace relations that hold for
    # genuine curvature: tr Hess S = Lap S, tr LapRic = Lap S, tr Ric = S
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.normal(size=(3, 3))
        g = a @ a.T + 3 * np.eye(3)
        gi = np.linalg.inv(g)
        ric = np.copy(rng.normal(size=(3, 3)))
        ric = (ric + ric.T) / 2
        hess = rng.normal(size=(3, 3))
        hess = (hess + hess.T) / 2
        lapric = rng.normal(size=(3, 3))
        lapric = (lapric + lapric.T) / 2
        lap_s = float(np.einsum("ij,ij->", gi, hess))
        # enforce tr_g LapRic = Lap S
        lapric += (lap_s - np.einsum("ij,ij->", gi, lapric)) / 3.0 * g
        s = float(np.einsum("ij,ij->", gi, ric))
        ric_mixed = gi @ ric
        fc = FactorCurvature(
            dim=3, g=g, ricci=ric, scalar=s, hess_scalar=hess,
            lap_scalar=lap_s, lap_ricci=lapric, ricci_sq=ric @ ric_mixed,
            ricci_norm2=float(np.trace(ric_mixed @ ric_mixed)))
        comp = bach_line_cross_3(fc)
        total_trace = comp["B_tt"] + np.einsum("ij,ij->", gi, comp["B_YZ"])
        assert abs(total_trace) <= 1e-10 * (1 + abs(comp["B_tt"]))


def test_line_cross_matches_pipeline_on_berger():
    err = products.line_cross_check(charts.berger_sphere(1.5), count=3)
    assert err <= 1e-8


def test_line_cross_matches_pipeline_on_inhomogeneous_factors():
    factors = [
        charts.conformal(charts.berger_sphere(1.2), "0.2*sin(be)*cos(al)"),
        charts.conformal(charts.round_sphere(3), "0.2*cos(ch)"),
        charts.conformal(charts.flat_torus((6.0, 7.0, 5.0)),
                         "0.3*sin(t0) + 0.2*cos(t1 + t2)"),
    ]
    for n in factors:
        assert products.line_cross_check(n, count=3) <= 1e-8, n.name


def test_line_cross_rejects_wrong_dimension():
    with pytest.raises(ProductFormulaError, match="3-dimensional"):
        bach_line_cross_3(fc_at(charts.round_sphere(2)))


# ----------------------------------------------------------------------
# K^2 x L^2 family
# ----------------------------------------------------------------------
def test_surface_product_sphere_times_flat():
    # S^2(1) x R^2: B = +(1/6) g_K on the sphere, -(1/6) g_L on the plane
    fck = fc_at(charts.round_sphere(2), [1.1, 0.7])
    fcl = fc_at(charts.euclidean(2))
    comp = bach_surface_product(fck, fcl)
    assert np.abs(comp["B_K"] - fck.g / 6.0).max() <= 1e-12
    assert np.abs(comp["B_L"] + fcl.g / 6.0).max() <= 1e-12


def test_surface_product_einstein_cancellations():
    # equal spheres and sphere x hyperbolic (S_K^2 = S_L^2) are Bach-flat
    fck = fc_at(charts.round_sphere(2), [1.1, 0.7])
    fcl = fc_at(charts.round_sphere(2), [0.6, 2.0])
    comp = bach_surface_product(fck, fcl)
    assert np.abs(comp["B_K"]).max() <= 1e-12
    assert np.abs(comp["B_L"]).max() <= 1e-12
    fch = fc_at(charts.hyperbolic_2(1.0), [0.2, 1.4])
    comp = bach_surface_product(fck, fch)
    assert np.abs(comp["B_K"]).max() <= 1e-12
    assert np.abs(comp["B_L"]).max() <= 1e-12


def test_surface_product_full_trace_vanishes_on_random_factors():
    fck = fc_at(charts.conformal_round_sphere("0.3*cos(th)"), [1.0, 0.5])
    fcl = fc_at(charts.conformal(charts.flat_torus((6.0, 7.0)),
                                 "0.25*sin(t0)*cos(t1)"), [2.0, 3.0])
    comp = bach_surface_product(fck, fcl)
    tr = (np.einsum("ij,ij->", np.linalg.inv(fck.g), comp["B_K"])
          + np.einsum("ij,ij->", np.linalg.inv(fcl.g), comp["B_L"]))
    assert abs(tr) <= 1e-12


def test_surface_product_matches_pipeline():
    pairs = [
        (charts.conformal_round_sphere("0.3*cos(th)"),
         charts.conformal(charts.flat_torus((6.0, 7.0)),
                          "0.25*sin(t0)*cos(t1)")),
        (charts.conformal(charts.hyperbolic_2(), "0.1*x*y"),
         charts.round_sphere(2, 1.3)),
    ]
    for k, l in pairs:
        assert products.surface_cross_check(k, l, count=3) <= 1e-8


def test_surface_product_rejects_wrong_dimensions():
    with pytest.raises(ProductFormulaError, match="2-dimensional"):
        bach_surface_product(fc_at(charts.round_sphere(3)),
                             fc_at(charts.round_sphere(2)))


# ----------------------------------------------------------------------
# lambda sign laws and the obstruction tensor
# ----------------------------------------------------------------------
def test_lambda_zero_on_constant_curvature():
    fc = fc_at(charts.round_sphere(3), [1.0, 1.2, 0.8])
    assert abs(circle_product_lambda(fc)) <= 1e-12
    assert abs(line_product_lambda(fc)) <= 1e-12
    assert einstein_residual_norm2(fc) <= 1e-12
    flat = fc_at(charts.flat_torus((2.0, 3.0, 4.0)))
    assert circle_product_lambda(flat) == 0.0


def test_lambda_signs_on_berger_family():
    for a in (0.7, 1.2, 1.5, 2.0):
        fc = fc_at(charts.berger_sphere(a), [0.7, 1.1, 0.4])
        lam_c = circle_product_lambda(fc)
        lam_l = line_product_lambda(fc)
        e = (32.0 / 3.0) * (a * a - 1) ** 2
        assert abs(lam_c - e / 8.0) <= 1e-10
        assert abs(lam_l + e / 24.0) <= 1e-10
        if a != 1.0:
            assert lam_c > 0 and lam_l < 0
            assert einstein_residual_norm2(fc) > 1e-3


def test_product_lambda_report_and_constancy_gate():
    rep = products.product_lambda_report(charts.berger_sphere(1.5), "circle")
    assert rep["lambda"] > 0
    assert rep["scalar_spread"] <= 1e-10
    bumpy = charts.conformal(charts.round_sphere(3), "0.2*cos(ch)")
    with pytest.raises(ProductFormulaError, match="constant"):
        products.product_lambda_report(bumpy, "line")
    with pytest.raises(ProductFormulaError, match="family"):
        products.product_lambda_report(charts.berger_sphere(1.5), "torus")


def test_constancy_spread_equals_the_per_point_path(monkeypatch):
    chart = charts.conformal(charts.round_sphere(3), "0.2*cos(ch)")
    pts = charts.sample_points(chart, 40, margin=0.12)
    s = [CurvatureFrame(chart, p).scalar.value for p in pts]
    r = [CurvatureFrame(chart, p).ricci_norm2.value for p in pts]
    orders = count_frames(monkeypatch)
    spread, fc = products.constancy_spread(chart, count=40)
    assert spread == {"scalar_spread": float(np.ptp(s)),
                      "ricci_norm2_spread": float(np.ptp(r))}
    assert same_bits(fc.scalar, np.array(s))
    assert same_bits(fc.ricci_norm2, np.array(r))
    assert orders == [(BASE_ORDER, 40)]  # 40 dim-3 points fit one frame


def test_obstruction_zero_on_constant_curvature():
    assert np.abs(line_soliton_obstruction(
        fc_at(charts.round_sphere(3), [1.0, 1.2, 0.8]))).max() <= 1e-11
    assert np.abs(line_soliton_obstruction(
        fc_at(charts.flat_torus((2.0, 3.0, 4.0))))).max() == 0.0


def test_obstruction_berger_golden_norm():
    # frozen regression value for the squashed sphere a = 1.5
    fc = fc_at(charts.berger_sphere(1.5), [0.7, 1.1, 0.4])
    r = line_soliton_obstruction(fc)
    m = np.linalg.inv(fc.g) @ r
    norm = float(np.sqrt(np.trace(m @ m)))
    assert abs(norm - 21.7732421580727) <= 1e-9
    assert abs(np.trace(m)) <= 1e-12  # the obstruction is trace-free
    # homogeneity: same value elsewhere on the group
    fc2 = fc_at(charts.berger_sphere(1.5), [2.0, 2.0, 3.0])
    r2 = line_soliton_obstruction(fc2)
    m2 = np.linalg.inv(fc2.g) @ r2
    assert abs(float(np.sqrt(np.trace(m2 @ m2))) - norm) <= 1e-9


# ----------------------------------------------------------------------
# surface c-invariant
# ----------------------------------------------------------------------
def test_c_invariant_round_sphere():
    assert abs(surface_c_invariant(
        fc_at(charts.round_sphere(2), [1.1, 0.7])) - 4.0 / 3.0) <= 1e-11
    assert surface_c_invariant(fc_at(charts.euclidean(2))) == 0.0


def test_c_invariant_conformal_sphere_spread_golden():
    rep = products.surface_c_report(
        charts.conformal_round_sphere("0.2*cos(th)"))
    assert abs(rep["spread"] - 1.0518446276695) <= 1e-8
    rep_round = products.surface_c_report(charts.round_sphere(2), count=8)
    assert rep_round["spread"] <= 1e-11


def test_c_invariant_rejects_wrong_dimension():
    with pytest.raises(ProductFormulaError, match="surface"):
        surface_c_invariant(fc_at(charts.round_sphere(3)))



# ----------------------------------------------------------------------
# point sets
# ----------------------------------------------------------------------
def at_point(x, k):
    """The k-th point's entry of a point-set value (point axis last)."""
    if isinstance(x, dict):
        return {key: at_point(v, k) for key, v in x.items()}
    return x[..., k]


SET_CHARTS = [
    charts.conformal_round_sphere("0.3*cos(th)"),
    charts.conformal(charts.flat_torus((6.0, 7.0)), "0.25*sin(t0)*cos(t1)"),
    charts.conformal(charts.berger_sphere(1.2), "0.2*sin(be)*cos(al)"),
    charts.conformal(charts.round_sphere(3), "0.2*cos(ch)"),
]


def factor_data(chart, count=11):
    """FactorCurvature over a sample set, and at each of its points."""
    pts = charts.sample_points(chart, count, margin=0.15)
    return (FactorCurvature.at(chart, pts),
            [FactorCurvature.at(chart, p) for p in pts])


def assert_set_holds_each(on_set, each):
    """The k-th point of a point-set value is each[k], bit for bit."""
    for k, one in enumerate(each):
        got = at_point(on_set, k)
        if isinstance(one, dict):
            assert got.keys() == one.keys()
            assert all(same_bits(got[key], one[key]) for key in one), k
        else:
            assert same_bits(got, one), k


@pytest.mark.parametrize("chart", SET_CHARTS, ids=lambda c: c.name)
def test_factor_curvature_on_a_set_equals_each_point(chart):
    fcs, each = factor_data(chart)
    assert fcs.dim == chart.dim
    for name in vars(fcs):
        if name != "dim":
            assert_set_holds_each(getattr(fcs, name),
                                  [getattr(fc, name) for fc in each])


def test_n3_closed_forms_on_a_set_equal_each_point():
    for chart in SET_CHARTS[2:]:
        fcs, each = factor_data(chart)
        for form in (bach_line_cross_3, circle_product_lambda,
                     einstein_residual_norm2, line_product_lambda,
                     line_soliton_obstruction):
            assert_set_holds_each(form(fcs), [form(fc) for fc in each])


def test_surface_closed_forms_on_a_set_equal_each_point():
    (ks, k_each), (ls, l_each) = (factor_data(c) for c in SET_CHARTS[:2])
    assert_set_holds_each(surface_c_invariant(ks),
                          [surface_c_invariant(fc) for fc in k_each])
    assert_set_holds_each(bach_surface_product(ks, ls),
                          [bach_surface_product(fk, fl)
                           for fk, fl in zip(k_each, l_each)])


def test_product_group_frame_budget(monkeypatch):
    # suite all's product group: one factor frame per point set, the dim-4
    # frames in chunks of 8, and one frame per constancy spread's 24 dim-3
    # points, from which the lambda reports take lambda as well; one frame
    # per point was 90 (84 single-point)
    orders = count_frames(monkeypatch)
    suite._product_checks(tolerances.resolve())
    assert len(orders) == 13
    assert sum(n == 1 for _, n in orders) == 0


# ----------------------------------------------------------------------
# the coefficient-fit script
# ----------------------------------------------------------------------
# the rationals of the `products` docstring, block by block
FITTED_COEFFS = {
    "line x N3, tt block": {"lapS": "-1/12", "|Ric|^2": "-1/4",
                            "S^2": "1/12"},
    "line x N3, N block": {"lapRic": "1/2", "hessS": "-1/6", "Ric^2": "-2",
                           "S*Ric": "7/6", "lapS*g": "-1/12",
                           "|Ric|^2*g": "3/4", "S^2*g": "-5/12"},
    "K2 x L2, K block": {"hessS_K": "-1/6", "lapS_K*g": "1/6",
                         "lapS_L*g": "-1/12", "S_K^2*g": "1/24",
                         "S_L^2*g": "-1/24", "S_KS_L*g": "0"},
}


def test_fit_script_rederives_the_frozen_coefficients():
    src = str(Path(bachlab.__file__).parents[1])
    script = Path(__file__).parents[1] / "scripts" / "fit_product_coeffs.py"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, str(script)], env=env,
                         capture_output=True, text=True, check=True).stdout
    blocks, resid = {}, {}
    for line in out.splitlines():
        head = re.match(r"--- (.+) \(.*\) max resid (\S+)$", line)
        if head:
            block = blocks.setdefault(head[1], {})
            resid[head[1]] = float(head[2])
            continue
        label, _, fraction = re.match(r"\s+(\S+)\s+(\S+)\s+~ (\S+)$",
                                      line).groups()
        block[label] = Fraction(fraction)
    assert blocks == {name: {label: Fraction(text)
                             for label, text in coeffs.items()}
                      for name, coeffs in FITTED_COEFFS.items()}
    assert all(r < 1e-12 for r in resid.values()), resid
