"""Soliton residual machinery: named examples, profiles, parameter solve."""

import collections

import numpy as np
import pytest
import scipy.linalg

from bachlab import charts, curvature, solitons, suite, tolerances
from bachlab.curvature import BASE_ORDER, CurvatureFrame
from bachlab.products import ProductFormulaError, line_soliton_obstruction
from bachlab.solitons import (ResidualReport, SolitonError, SolitonSpec,
                              bach_soliton_residual, berger_condition_scalar,
                              extended_q_residual, named_example,
                              quadratic_profile_check, solve_berger_soliton,
                              splitting_spotcheck, surface_conformal_field)
from conftest import (chunk_orders, count_frames, distinct_orders,
                      factor_at, per_point)


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
    # from code, a mis-shaped q would broadcast into the residual
    with pytest.raises(SolitonError, match="custom_q must be 4 x 4"):
        SolitonSpec(manifold=man, potential="x", lam=0.0, q="custom",
                    custom_q=(("0",) * 4,) * 3 + (("0",) * 3,))
    spec = SolitonSpec(manifold=man, potential="x", lam=0.0)
    assert spec.potential is not None and spec.phi is None


def test_spec_from_doc():
    doc = {"manifold": "r2_x_s2", "f": "-(x^2 + y^2)/12",
           "lambda": -1.0 / 12.0}
    spec = SolitonSpec.from_doc(doc)
    assert spec.manifold.name == "r2_x_s2"
    assert spec.q == "bach_flow" and spec.potential is not None
    inline = {"manifold": {"name": "m", "factors": [
        {"kind": "round_sphere", "params": {"n": 2}},
        {"kind": "flat_torus", "params": {"lengths": [6.0, 7.0]}}]},
        "X": ["0", "0", "0", "0"], "phi": "0"}
    spec2 = SolitonSpec.from_doc(inline)
    assert spec2.phi is not None and spec2.manifold.dim == 4
    with pytest.raises(SolitonError, match="unknown soliton fields"):
        SolitonSpec.from_doc({**doc, "extra": 1})
    with pytest.raises(SolitonError, match="lambda must be a number"):
        SolitonSpec.from_doc({"manifold": "r2_x_s2", "f": "x",
                              "lambda": "big"})
    with pytest.raises(SolitonError, match="lambda must be a number"):
        SolitonSpec.from_doc({"manifold": "r2_x_s2", "f": "x",
                              "lambda": True})
    with pytest.raises(SolitonError, match="X must be a list"):
        SolitonSpec.from_doc({"manifold": "r2_x_s2", "X": "xyth",
                              "lambda": 0.0})
    with pytest.raises(SolitonError, match="custom_q must be a list of rows"):
        SolitonSpec.from_doc({**doc, "q": "custom",
                              "custom_q": ["0000"] * 4})
    with pytest.raises(charts.ChartError,
                       match="catalog name or a manifold document"):
        SolitonSpec.from_doc({"f": "x", "lambda": 0.0})
    with pytest.raises(charts.ChartError):
        SolitonSpec.from_doc({**doc, "manifold": "nope"})


# ----------------------------------------------------------------------
# extended residual: structural zero cases
# ----------------------------------------------------------------------
def test_killing_field_zero_q_zero_phi():
    man = charts.round_sphere(2)
    spec = SolitonSpec(manifold=man, x_exprs=("0", "1"), lam=0.0, q="zero")
    rep = extended_q_residual(spec, count=10)
    assert rep.sup <= 1e-13 and rep.passed


def test_constructed_q_is_identically_zero():
    man = charts.get_example("s2_x_t2")
    spec = SolitonSpec(
        manifold=man, q="constructed",
        x_exprs=("0.3*cos(th)", "0.2*sin(ph)", "0.1*cos(t0)", "0.4"),
        phi="0.7*sin(th)*cos(t1)")
    rep = extended_q_residual(spec, count=5)
    assert rep.sup <= 1e-15


def test_conformal_field_case_on_round_sphere():
    man = charts.round_sphere(2)
    spec = SolitonSpec(manifold=man, potential="cos(th)", phi="-cos(th)",
                       q="zero")
    rep = extended_q_residual(spec, count=10)
    assert rep.sup <= 1e-12


def test_custom_q_matches_zero_selector():
    man = charts.get_example("r2_x_s2")
    zeros = tuple(tuple("0" for _ in range(4)) for _ in range(4))
    a = extended_q_residual(
        SolitonSpec(manifold=man, potential="x*y", lam=0.1, q="custom",
                         custom_q=zeros), count=3)
    b = extended_q_residual(
        SolitonSpec(manifold=man, potential="x*y", lam=0.1, q="zero"),
        count=3)
    assert np.array_equal(a.residuals, b.residuals)


def test_report_summary_fields():
    man = charts.round_sphere(2)
    spec = SolitonSpec(manifold=man, x_exprs=("0", "1"), lam=0.0, q="zero")
    rep = extended_q_residual(spec, count=4, label="killing")
    s = rep.summary()
    assert s["label"] == "killing" and s["passed"] is True
    assert s["points"] == len(rep.norms) and s["sup"] == rep.sup


def test_residual_is_taken_on_the_spec_manifold():
    # the round sphere's conformal Killing data, on a bumped sphere with
    # the same coordinate names: it fails there, and only there is it
    # checked
    bump = charts.get_example("conformal_sphere_bump")
    kw = {"x_exprs": ("-sin(th)", "0"), "phi": "-cos(th)", "q": "zero"}
    rep = extended_q_residual(SolitonSpec(manifold=bump, **kw), count=4)
    assert rep.sup > 0.1 and not rep.passed
    rep = extended_q_residual(
        SolitonSpec(manifold=charts.round_sphere(2), **kw), count=4)
    assert rep.sup <= 1e-13 and rep.passed


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


def test_named_examples_name_their_gate():
    assert len(solitons.EXAMPLES) == 6
    for name, build in solitons.EXAMPLES.items():
        ex = build()
        assert ex["tol"] == tolerances.DEFAULTS[ex["gate"]], name
    assert {name: build()["gate"]
            for name, build in solitons.EXAMPLES.items()} == {
        "ho-r2s2": "soliton_gradient_product",
        "ho-r2h2": "soliton_gradient_product",
        "ho-r2s2-literal": "soliton_gradient_product",
        "ho-r2h2-literal": "soliton_gradient_product",
        "s4-trivial": "soliton", "berger-line": "soliton"}


def test_named_example_unknown():
    with pytest.raises(SolitonError, match="unknown soliton example"):
        named_example("ho-r2s3")


def test_lambda_form_equals_extended_form():
    # (1/2)L_X g = (1/2)(B + (1/12)Lap(S) g) + lam g  is the same equation
    # as the extended form with q = B and phi = lam + (1/24)Lap(S): its
    # residual is that of q = B and phi = lam, less (1/24)Lap(S) g
    man = charts.conformal(charts.get_example("s2_x_s2"),
                           "0.2*cos(th) + 0.1*sin(th_2)")
    lam = 0.3
    pts = sample_and_grid(man, 4)[:6]
    a = bach_soliton_residual(man, lam, potential="0.2*cos(th)*cos(ph)",
                              points=pts)
    spec = SolitonSpec(manifold=man, potential="0.2*cos(th)*cos(ph)",
                       q="bach", lam=lam)
    b = extended_q_residual(spec, points=pts)
    lap_s, g = curvature.on_points(man, pts, lambda fr: (
        fr.lap_scalar.value, fr.g.value))
    assert np.allclose(a.residuals - b.residuals,
                       -lap_s[:, None, None] / 24.0 * np.moveaxis(g, -1, 0),
                       atol=1e-13)
    assert a.sup > 1e-3  # the data is not a soliton; agreement is the point


def test_bach_soliton_needs_dim_4():
    man = charts.round_sphere(3)
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
    # the formula at each of the 8 spread points, which round off on their
    # own; their mean is lambda_formula
    assert out["lambda_deviation"] <= 1e-15
    assert abs(out["lambda_formula"]) <= 1e-15
    assert out["residual"].sup <= 1e-10
    for lam in (0.1, -0.1):
        bad = quadratic_profile_check(man, lam=lam, count=4)
        assert not bad["passed"] and bad["lambda_deviation"] > 0.09


def test_profile_flat_torus_lambda_zero():
    man = charts.product([charts.line(4.0), charts.flat_torus((5.0, 6.0, 7.0))],
                         name="line_x_t3")
    out = quadratic_profile_check(man, lam=0.0, count=4)
    assert out["passed"] and out["lambda_formula"] == 0.0


def test_profile_off_root_berger_fails_only_residual():
    man = charts.get_example("line_x_berger")  # a = 1.5: not the root
    fc = charts.berger_sphere(1.5)
    from bachlab.products import line_product_lambda
    lam = line_product_lambda(factor_at(fc, fc.center()))
    out = quadratic_profile_check(man, lam=lam, count=4)
    assert out["lambda_deviation"] <= 1e-12
    assert out["profile_second_derivative_deviation"] <= 1e-12
    assert out["traced_identity_deviation"] <= 1e-9
    assert not out["residual"].passed and out["residual"].sup > 1.0


def test_profile_takes_numpy_scalars():
    # the repr of np.float64(0.0) is "np.float64(0.0)", no number in a
    # potential's text
    man = charts.product([charts.line(4.0), charts.berger_sphere(1.0)])
    out = quadratic_profile_check(man, np.float64(0.0), a=np.float64(0.3),
                                  b=np.float64(-1.0), count=4)
    assert out["passed"]
    assert same_bits(out, quadratic_profile_check(man, 0.0, a=0.3, b=-1.0,
                                                  count=4))


def test_profile_structure_errors():
    with pytest.raises(SolitonError, match="line x N"):
        quadratic_profile_check(charts.get_example("r2_x_s2"), 0.0)
    with pytest.raises(SolitonError, match="not a circle"):
        quadratic_profile_check(charts.get_example("circle_x_berger"), 0.0)
    bumpy = charts.product(
        [charts.line(4.0),
         charts.conformal(charts.round_sphere(3), "0.2*cos(ch)")],
        name="line_x_bumpy")
    with pytest.raises(ProductFormulaError, match="must be constant on N"):
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
    assert abs(out["a_star"] - 0.5) <= 1e-14
    assert abs(out["lambda_star"] + 0.25) <= 1e-14
    assert out["round_root_included"]
    assert out["residual_sup"] <= 1e-7 and out["passed"]
    assert abs(out["factor_scalar_curvature"] - 7.5) <= 1e-14
    # the 4-dim jet residual's own lambda agrees with the algebraic one
    assert out["profile_check"]["lambda_deviation"] <= 1e-12


@pytest.mark.parametrize("interval, scan", [
    ((0.1, 3.0), 120), ((0.25, 0.8), 5), ((0.32, 0.67), 5),
    ((0.39, 0.62), 5), ((0.45, 0.55), 2)])
def test_solver_root_is_half_to_rounding(interval, scan):
    out = solve_berger_soliton(interval=interval, scan=scan)
    assert abs(out["a_star"] - 0.5) <= 1e-14
    assert abs(out["lambda_star"] + 0.25) <= 1e-14
    assert out["passed"]


def jet_condition(a):
    """The condition as it was computed through jets: the obstruction of a
    factor frame at one chart point, reduced by generalized eigenvalues."""
    fc = factor_at(charts.berger_sphere(a), [0.7, 1.1, 0.4])
    eigs = scipy.linalg.eigh(line_soliton_obstruction(fc), fc.g,
                             eigvals_only=True)
    return float(eigs[int(np.argmax(np.abs(eigs)))])


@pytest.mark.parametrize("a", [0.3, 0.5, 0.7, 1.0, 1.5, 2.2])
def test_condition_agrees_with_the_jet_route(a):
    # the jets round off at about 1e-11 of the obstruction's scale at
    # a = 0.3, and far less elsewhere
    ref = jet_condition(a)
    assert abs(berger_condition_scalar(a) - ref) <= 3e-11 * max(1.0,
                                                                 abs(ref))


def test_condition_vanishes_exactly_at_the_roots():
    assert berger_condition_scalar(0.5) == 0.0
    assert berger_condition_scalar(1.0) == 0.0


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
    orders = count_frames(monkeypatch)
    out = solve_berger_soliton()
    assert out["outcome"] == "root" and out["passed"]
    assert abs(out["a_star"] - 0.5) <= 1e-14
    # the scan's 121 values, then Brent's steps inside the two brackets;
    # the bracket ends and the root are not evaluated again
    assert len(calls) <= 141
    assert len(set(calls)) == len(calls)
    # the condition and lambda* build no frame: the only frames are the
    # profile check's, its constancy spread over 8 points of the squashed
    # sphere and its residual at 8 points
    assert orders == [(BASE_ORDER, 8)] + chunk_orders(8)
    assert out["scalar_at_root"] == condition(out["a_star"])


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


def test_c_field_identity_holds_off_soliton(monkeypatch):
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
    monkeypatch.setattr(solitons, "C_COEFFICIENT", -1.0 / 3.0)
    literal = surface_conformal_field(man, spec, count=5)
    assert literal["identity_sup"] > 1e-2


def test_c_field_residual_is_the_extended_residual():
    man = charts.get_example("s2_x_s2")
    spec = SolitonSpec(manifold=man, x_exprs=("0.1*sin(th)", "1", "0", "0"),
                       phi="0.02*cos(th_2)")
    pts = charts.sample_points(man, 3)
    out = surface_conformal_field(man, spec, points=pts)
    rep = extended_q_residual(spec, points=pts)
    assert out["extended_residual_sup"] == np.abs(rep.residuals).max() > 0


@pytest.mark.parametrize("empty", [np.empty((0, 4)), []])
def test_an_empty_point_set_is_rejected(empty):
    # a sup over no points is 0.0, which would pass any data
    man = charts.get_example("r2_x_s2")
    with pytest.raises(SolitonError, match="at least one point"):
        bach_soliton_residual(man, 1.0 / 6.0, potential="(x^2+y^2)/6",
                              points=empty)
    spec = SolitonSpec(manifold=man, potential="-(x^2 + y^2)/12",
                       lam=-1.0 / 12.0)
    with pytest.raises(SolitonError, match="at least one point"):
        surface_conformal_field(man, spec, points=empty)


def test_c_field_structure_error():
    man = charts.get_example("line_x_berger")
    spec = SolitonSpec(manifold=man, potential="t", lam=0.0)
    with pytest.raises(SolitonError, match="two surfaces"):
        surface_conformal_field(man, spec)


def test_c_field_rejects_a_spec_on_another_manifold():
    man = charts.get_example("s2_x_s2")
    bumped = charts.conformal(man, "0.2*cos(th)")
    assert bumped.coords == man.coords
    spec = SolitonSpec(manifold=bumped, x_exprs=("0", "1", "0", "0"),
                       lam=0.0)
    with pytest.raises(SolitonError, match="not on 's2_x_s2'"):
        surface_conformal_field(man, spec, count=1)


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
        splitting_spotcheck(charts.round_sphere(2), "th")


def test_residual_sample_points():
    open_man = charts.get_example("r2_x_s2")
    pts = charts.residual_sample_points(open_man, 20)
    assert pts.shape == (20, 4)
    compact = charts.get_example("s2_x_s2")
    pts2 = charts.residual_sample_points(compact, 20)
    assert len(pts2) == 20 + 81
    assert np.array_equal(pts2[20:], charts.quadrature(compact, 3).nodes)
    assert np.array_equal(pts2, charts.residual_sample_points(compact, 20))


# ----------------------------------------------------------------------
# point chunks: one frame per chunk, values bitwise per point
# ----------------------------------------------------------------------
def bumpy_s2_x_s2():
    return charts.conformal(charts.get_example("s2_x_s2"),
                            "0.2*cos(th) + 0.1*sin(th_2)")


def sample_and_grid(man, count):
    """Halton points and 2 quadrature nodes per axis: 16 at dim 4."""
    return np.vstack([charts.sample_points(man, count),
                      charts.quadrature(man, 2).nodes])


def same_bits(a, b):
    """Equal values of the same shape, bit for bit (NaN included)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a)
    if isinstance(a, ResidualReport):
        return same_bits(vars(a), vars(b))
    if isinstance(a, str) or a is None:
        return a == b
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("spec_kw", [
    {"q": "bach", "phi": "0.3 + 0.1*cos(th)"},
    {"q": "bach_flow", "phi": "0.2*cos(th)*sin(th_2) - 0.1"},
    {"q": "bach_flow", "lam": 0.2},
    {"q": "constructed", "phi": "0.1*sin(th_2)"},
    {"q": "zero", "lam": -0.1},
    {"q": "custom", "lam": 0.0,
     "custom_q": tuple(tuple("0.1*cos(th)" if i == j else "0"
                             for j in range(4)) for i in range(4))},
])
def test_residual_equals_the_per_point_path(spec_kw):
    # 20 Halton points and the 16 grid nodes of a compact chart: 5 frames
    man = bumpy_s2_x_s2()
    pts = sample_and_grid(man, 20)
    assert len(chunk_orders(len(pts))) == 5
    spec = SolitonSpec(manifold=man, potential="0.2*cos(th)*cos(ph)",
                       **spec_kw)
    rep = extended_q_residual(spec, points=pts)
    for i, p in enumerate(pts):
        frame = CurvatureFrame(man, p)
        g, _, r = solitons._residual(frame, spec,
                                     solitons._field_jets(frame, spec))
        assert same_bits(rep.residuals[i], r), i
        assert same_bits(rep.norms[i], solitons.metric_norm(g, r)), i


def test_residual_builds_one_frame_per_chunk(monkeypatch):
    orders = count_frames(monkeypatch)
    man = bumpy_s2_x_s2()
    pts = sample_and_grid(man, 20)
    rep = bach_soliton_residual(man, 0.1, potential="0.2*cos(th)",
                                points=pts)
    assert len(rep.norms) == 36
    # the metric reads th and th_2, and the chunks with grid nodes repeat
    # pairs of them: their stages run once per distinct pair (the third
    # chunk's 4 grid nodes hold 2 pairs, the last chunks' 8 and 4 hold 4
    # and 2)
    assert orders == distinct_orders(pts, [0, 2])
    assert orders == [(4, 8), (4, 8), (4, 8), (4, 6), (4, 8), (4, 4),
                      (4, 4), (4, 2)]


def test_profile_check_equals_the_per_point_path(monkeypatch):
    man = charts.product([charts.line(4.0), charts.berger_sphere(1.3)])
    one, chunked = per_point(monkeypatch, lambda: quadratic_profile_check(
        man, -0.25, a=0.1, b=0.2, count=40, tol=10.0))
    assert same_bits(one, chunked)
    assert chunked["traced_identity_deviation"] > 0.0


def test_profile_check_builds_one_frame_per_chunk(monkeypatch):
    orders = count_frames(monkeypatch)
    man = charts.product([charts.line(4.0), charts.berger_sphere(1.3)])
    quadratic_profile_check(man, -0.25, count=80, tol=10.0)
    # constancy spread with the lambda formula (one frame over 40 points of
    # N^3), and the residual with the traced identity and f'' (80 points)
    assert orders == [(BASE_ORDER, 40)] + chunk_orders(80)


@pytest.mark.parametrize("name, spec_kw", [
    ("r2_x_s2", {"potential": "-(x^2 + y^2)/12", "lam": -1.0 / 12.0}),
    ("s2_x_s2", {"potential": "0.1*cos(th)", "phi": "0.2*cos(th_2) + 0.1"}),
])
def test_c_field_equals_the_per_point_path(monkeypatch, name, spec_kw):
    man = charts.get_example(name)  # s2_x_s2 adds 16 grid nodes
    pts = sample_and_grid(man, 12)
    spec = SolitonSpec(manifold=man, **spec_kw)
    one, chunked = per_point(
        monkeypatch, lambda: surface_conformal_field(man, spec, points=pts))
    assert same_bits(one, chunked)


def test_c_field_builds_one_frame_per_chunk(monkeypatch):
    orders = count_frames(monkeypatch)
    man = charts.get_example("s2_x_s2")
    spec = SolitonSpec(manifold=man, potential="0.1*cos(th)", lam=0.0)
    out = surface_conformal_field(man, spec, count=10)
    assert len(out["points"]) == 91
    # the metric reads th and th_2, which the 81 grid nodes repeat
    assert orders == distinct_orders(out["points"], [0, 2])
    assert [o for o in orders if o[1] == 8] == chunk_orders(91)[:-1]


def test_splitting_spotcheck_equals_the_per_point_path(monkeypatch):
    man = charts.get_example("s2_x_s2")
    one, chunked = per_point(monkeypatch, lambda: splitting_spotcheck(
        man, "cos(th) + sin(th_2)", "cos(th)*sin(th_2)", count=4))
    assert same_bits(one, chunked)
    orders = count_frames(monkeypatch)
    splitting_spotcheck(man, "cos(th) + sin(th_2)", "cos(th)*sin(th_2)",
                        count=4)
    # both fields share the frames; the metric reads th and th_2, which
    # the 81 grid nodes repeat
    pts = charts.residual_sample_points(man, 4)
    assert len(pts) == 4 + 81
    assert orders == distinct_orders(pts, [0, 2])
    assert orders[::2] == chunk_orders(4 + 81)[:len(orders[::2])]


def test_suite_bach_group_equals_the_per_point_path(monkeypatch):
    tols = tolerances.resolve()
    one, chunked = per_point(
        monkeypatch, lambda: suite._bach_property_checks(tols, count=18))
    assert one == chunked
    orders = count_frames(monkeypatch)
    suite._bach_property_checks(tols, count=18)
    # per chunk: one order-5 frame for B, tr B and div B, the rescaled one
    assert sorted(orders) == sorted(
        chunk_orders(18) + chunk_orders(18, BASE_ORDER + 1))


def test_soliton_group_frame_budget(monkeypatch):
    # suite all's soliton group at its default count builds 56 frames over
    # 439 points, one per chunk of at most 8; the Berger root solve's
    # condition and lambda* come from structure constants and build none.
    # One frame per point was 596 frames, and 200 with the condition on
    # single-point factor frames.  The ten chunks of s4-trivial's 3^4
    # residual grid repeat the metric's jets (it reads three of the four
    # angles), so each runs its stages on a distinct-point frame: 10 more
    # frames over 33 distinct jets.
    orders = count_frames(monkeypatch)
    suite._soliton_checks(tolerances.resolve(), count=80)
    assert sum(n for _, n in orders) == 439 + 33
    assert len(orders) == 56 + 10


def test_no_check_builds_two_frames_at_a_point(monkeypatch):
    # (check, chart name, params, order, point) of every frame the soliton
    # and Bach groups of suite all build, the check being the outermost
    # check function on the stack.  Checks may share points (the conformal
    # field's 6 points of r2_x_s2 begin the 80 of ho-r2s2); within one
    # check, no point has two frames.  A frame's distinct-point frame is
    # not a second frame: it holds some of that frame's points and runs
    # the stages the frame itself does not.
    covered = collections.Counter()
    check = [None]
    init = curvature.CurvatureFrame.__init__
    distinct = curvature.CurvatureFrame.__dict__["_distinct"]
    find = distinct.func
    serving = []  # the keys of the frame whose distinct points are found

    def recorded(self, chart, point, order=BASE_ORDER):
        params = tuple(sorted(chart.params.items()))
        keys = [(check[0], chart.name, params, order, p.tobytes())
                for p in np.atleast_2d(np.asarray(point, dtype=float))]
        if serving:
            assert set(keys) <= serving[-1]
        else:
            covered.update(keys)
            self._keys = set(keys)
        init(self, chart, point, order)

    def found(self):
        serving.append(self._keys)
        try:
            return find(self)
        finally:
            serving.pop()

    def labelled(name, fn):
        def run(*args, **kwargs):
            if check[0] is not None:
                return fn(*args, **kwargs)
            check[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                check[0] = None
        return run

    monkeypatch.setattr(curvature.CurvatureFrame, "__init__", recorded)
    monkeypatch.setattr(distinct, "func", found)
    for name in ("named_example", "solve_berger_soliton",
                 "quadratic_profile_check", "surface_conformal_field"):
        monkeypatch.setattr(solitons, name,
                            labelled(name, getattr(solitons, name)))
    monkeypatch.setattr(suite, "_bach_property_checks", labelled(
        "bach", suite._bach_property_checks))
    tols = tolerances.resolve()
    suite._soliton_checks(tols, count=80)
    suite._bach_property_checks(tols)
    assert None not in {key[0] for key in covered}
    repeats = {key: n for key, n in covered.items() if n > 1}
    assert not repeats, [key[:4] for key in repeats]
    # 439 points in the soliton group and 4 in the Bach group, one frame's
    # each as without distinct-point frames
    assert sum(covered.values()) == 439 + 4
