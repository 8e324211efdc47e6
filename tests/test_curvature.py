"""Curvature pipeline: closed forms, tensor symmetries, oracle agreement."""

import ast
import math
from importlib import resources

import numpy as np
import pytest

from bachlab import charts, curvature, fdcheck, suite
from bachlab._jettables import tables
from bachlab.curvature import (BASE_ORDER, CurvatureError, CurvatureFrame,
                               _index, bach_divergence, grad_lap_scalar,
                               on_points, pipeline_pack, values)
from bachlab.jets import Jet, JetOrderError, contract
from conftest import count_frames, frame_bound, per_point
from test_solitons import same_bits

RNG_METRIC_3 = [
    ["2 + 0.3*sin(x)*cos(y) + 0.1*z^2", "0.2*sin(x+z)", "0.1*cos(y)*z"],
    ["0.2*sin(x+z)", "1.5 + 0.2*cos(x)^2 + 0.1*sin(z)",
     "0.15*sin(y)*cos(z)"],
    ["0.1*cos(y)*z", "0.15*sin(y)*cos(z)", "1.8 + 0.25*sin(y+z)"],
]


def generic_chart(entries, coords):
    n = len(coords)
    return charts.Chart(
        name="generic", kind="custom", coords=tuple(coords),
        metric_strs=tuple(tuple(r) for r in entries), params={},
        lo=(-1.0,) * n, hi=(1.0,) * n, periodic=(False,) * n,
        compact=False, resolution=(8,) * n)


@pytest.fixture(scope="module")
def rand3():
    return generic_chart(RNG_METRIC_3, ("x", "y", "z"))


@pytest.fixture(scope="module")
def rand3_frame(rand3):
    return CurvatureFrame(rand3, [0.3, -0.4, 0.25])


# ----------------------------------------------------------------------
# closed forms on catalog spaces
# ----------------------------------------------------------------------
def test_sphere2_ricci_equals_metric():
    fr = CurvatureFrame(charts.round_sphere(2), [1.1, 0.6])
    assert np.abs(values(fr.ricci) - values(fr.g)).max() <= 1e-12
    assert abs(fr.scalar.value - 2.0) <= 1e-12


def test_sphere2_christoffel_closed_form():
    th = 0.9
    fr = CurvatureFrame(charts.round_sphere(2), [th, 2.0])
    gam = values(fr.gamma)
    # Gamma^th_phph = -sin th cos th, Gamma^ph_thph = cot th
    assert abs(gam[0, 1, 1] + math.sin(th) * math.cos(th)) <= 1e-14
    assert abs(gam[1, 0, 1] - math.cos(th) / math.sin(th)) <= 1e-14


def test_sphere2_hessian_of_first_eigenfunction():
    fr = CurvatureFrame(charts.round_sphere(2), [1.2, 0.4])
    h = fr.scalar_jet("cos(th)")
    hess = values(fr.hessian(h))
    assert np.abs(hess + math.cos(1.2) * values(fr.g)).max() <= 1e-13
    assert abs(fr.laplacian(h).value + 2.0 * math.cos(1.2)) <= 1e-13


def test_sphere3_constant_curvature_form():
    fr = CurvatureFrame(charts.round_sphere(3), [1.0, 1.3, 2.1])
    g = values(fr.g)
    riem = values(fr.riemann_lo)
    ref = np.einsum("li,jk->lijk", g, g) - np.einsum("lj,ik->lijk", g, g)
    assert np.abs(riem - ref).max() <= 1e-12
    assert abs(fr.scalar.value - 6.0) <= 1e-12


def test_sphere4_einstein_package():
    fr = CurvatureFrame(charts.round_sphere(4), [1.2, 0.9, 1.4, 2.0])
    g = values(fr.g)
    assert np.abs(values(fr.ricci) - 3 * g).max() <= 1e-12
    assert abs(fr.scalar.value - 12.0) <= 1e-12
    assert np.abs(values(fr.schouten) - 0.5 * g).max() <= 1e-12
    assert np.abs(values(fr.weyl_lo)).max() <= 1e-12
    assert np.abs(values(fr.cotton)).max() <= 1e-12
    assert np.abs(values(fr.lap_ricci)).max() <= 1e-12
    assert np.abs(values(fr.bach)).max() <= 1e-12


def test_hyperbolic_scalar_curvature():
    for r in (1.0, 2.0):
        fr = CurvatureFrame(charts.hyperbolic_2(r), [0.2, 1.3])
        assert abs(fr.scalar.value + 2.0 / r ** 2) <= 1e-12
        assert np.abs(values(fr.ricci) + values(fr.g) / r ** 2).max() <= 1e-12


def test_flat_spaces_are_flat():
    fr = CurvatureFrame(charts.flat_torus((2.0, 3.0, 1.0)), [0.5, 0.7, 0.2])
    assert np.abs(values(fr.riemann_lo)).max() == 0.0
    fr4 = CurvatureFrame(charts.flat_torus((1.0,) * 4), [0.1, 0.2, 0.3, 0.4])
    assert np.abs(values(fr4.bach)).max() == 0.0


def test_berger_curvature_closed_forms():
    for a in (0.8, 1.5):
        fr = CurvatureFrame(charts.berger_sphere(a), [0.7, 1.1, 0.4])
        assert abs(fr.scalar.value - (8 - 2 * a * a)) <= 1e-12
        ref_norm2 = 4 * a ** 4 + 2 * (4 - 2 * a * a) ** 2
        assert abs(fr.ricci_norm2.value - ref_norm2) <= 1e-11
        # Ricci eigenvalues w.r.t. g: 2a^2 and 4 - 2a^2 (double)
        lam = np.sort(np.linalg.eigvals(
            np.linalg.inv(values(fr.g)) @ values(fr.ricci)).real)
        ref = np.sort([2 * a * a, 4 - 2 * a * a, 4 - 2 * a * a])
        assert np.abs(lam - ref).max() <= 1e-10


def test_surface_of_revolution_round_profile_curvature():
    # rho = sin t gives the unit sphere: S = 2 everywhere
    srf = charts.surface_of_revolution("sin(t)")
    for t in (0.4, 1.0, 2.2):
        fr = CurvatureFrame(srf, [t, 1.0])
        assert abs(fr.scalar.value - 2.0) <= 1e-11


# ----------------------------------------------------------------------
# tensor symmetries and identities on a generic metric
# ----------------------------------------------------------------------
def test_riemann_symmetries(rand3_frame):
    riem = values(rand3_frame.riemann_lo)
    assert np.abs(riem + np.swapaxes(riem, 1, 2)).max() <= 1e-9
    assert np.abs(riem + np.transpose(riem, (3, 1, 2, 0))).max() <= 1e-9
    # pair exchange R_lijk = R_jkli
    assert np.abs(riem - np.transpose(riem, (2, 3, 0, 1))).max() <= 1e-9


def test_first_bianchi(rand3_frame):
    r = values(rand3_frame.riemann_up)
    cyc = r + np.transpose(r, (0, 2, 3, 1)) + np.transpose(r, (0, 3, 1, 2))
    assert np.abs(cyc).max() <= 1e-9


def test_ricci_symmetric(rand3_frame):
    ric = values(rand3_frame.ricci)
    assert np.abs(ric - ric.T).max() <= 1e-12


def test_contracted_bianchi(rand3_frame):
    # div Ric = dS / 2
    div = values(rand3_frame.divergence_sym2(rand3_frame.ricci))
    ds = values(rand3_frame.grad_scalar_lo)
    assert np.abs(div - 0.5 * ds).max() <= 1e-7


def test_cotton_trace_free(rand3_frame):
    fr = rand3_frame
    cot = values(fr.cotton)
    gi = values(fr.ginv)
    assert np.abs(np.einsum("ij,kij->k", gi, cot)).max() <= 1e-12
    # antisymmetry in the first two slots
    assert np.abs(cot + np.swapaxes(cot, 0, 1)).max() <= 1e-12


def test_weyl_traces_vanish(rand3_frame):
    w = values(rand3_frame.weyl_lo)
    gi = values(rand3_frame.ginv)
    # contraction over the (l, k) pair reproduces zero for every (i, j)
    assert np.abs(np.einsum("lk,lijk->ij", gi, w)).max() <= 1e-11


def test_weyl_from_one_outer_product_equals_two_products_bitwise(rand3):
    for chart in (rand3, charts.get_example("s2_x_s2")):
        pts = charts.sample_points(chart, 3)
        for where in (pts, pts[1]):
            frame = CurvatureFrame(chart, where)
            k = frame.weyl_lo.order
            P, g2 = frame.schouten.truncated(k), frame.g.truncated(k)
            half = (contract("li,jk->lijk", P, g2)
                    + contract("li,jk->lijk", g2, P))
            want = frame.riemann_lo - (half - _index("lijk->ljik", half))
            assert frame.weyl_lo.coeffs.tobytes() == want.coeffs.tobytes()


def test_inverse_metric_jets(rand3_frame):
    fr = rand3_frame
    n = fr.n
    g = fr.g.truncated(fr.ginv.order)
    prod = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            acc = g[i, 0] * fr.ginv[0, j]
            for k in range(1, n):
                acc = acc + g[i, k] * fr.ginv[k, j]
            prod[i, j] = acc
    for i in range(n):
        for j in range(n):
            coeffs = prod[i, j].coeffs.copy()
            if i == j:
                coeffs[0] -= 1.0
            assert np.abs(coeffs).max() <= 1e-13


# ----------------------------------------------------------------------
# each stage at the order its readers take
# ----------------------------------------------------------------------
def _order_charts(rand3):
    return (rand3, charts.get_example("s2_x_s2"),
            charts.get_example("line_x_berger"))


def _newton_inverse_at_order_m(frame):
    """g^-1 by the frame's three Newton steps, run at the order of g."""
    n, m = frame.n, frame.order
    g0 = np.moveaxis(frame.g.value, (0, 1), (-2, -1))
    X = Jet.constant(np.moveaxis(np.linalg.inv(g0), (-2, -1), (0, 1)), n, m)
    eye = np.eye(n).reshape((n, n) + (1,) * len(frame.batch))
    two_i = Jet.constant(2.0 * eye, n, m)
    for _ in range(3):
        X = contract("ik,kj->ij", X, two_i - contract("ik,kj->ij", frame.g, X))
    return X


def _leading(t: Jet, order: int) -> np.ndarray:
    return t.coeffs[..., :tables(t.dim, order).size]


@pytest.mark.parametrize("order", [4, 5])
def test_inverse_metric_is_the_leading_part_of_newton_at_order_m(rand3, order):
    for chart in _order_charts(rand3):
        pts = charts.sample_points(chart, 3)
        for where in (pts, pts[1]):
            frame = CurvatureFrame(chart, where, order=order)
            assert frame.ginv.order == order - 1
            full = _newton_inverse_at_order_m(frame)
            assert same_bits(frame.ginv.coeffs, _leading(full, order - 1)), \
                (chart.name, order, np.ndim(where))


@pytest.mark.parametrize("order", [4, 5])
def test_lower_four_index_stages_are_the_leading_part_of_order_m_minus_2(
        rand3, order):
    for chart in _order_charts(rand3):
        pts = charts.sample_points(chart, 3)
        for where in (pts, pts[1]):
            frame = CurvatureFrame(chart, where, order=order)
            lo = frame.riemann_lo.order
            assert lo == frame.weyl_lo.order == order - 4
            # the formulas at order m - 2, the order of R^up and P
            riem = contract("lm,mijk->lijk", frame.g, frame.riemann_up)
            pg = contract("li,jk->lijk", frame.schouten, frame.g)
            half = pg + _index("jkli->lijk", pg)
            weyl = riem - (half - _index("lijk->ljik", half))
            assert riem.order == weyl.order == order - 2
            at = (chart.name, order, np.ndim(where))
            assert same_bits(frame.riemann_lo.coeffs, _leading(riem, lo)), at
            assert same_bits(frame.weyl_lo.coeffs, _leading(weyl, lo)), at


def test_inverse_metric_operators_take_a_tensor_at_the_frame_order(rand3):
    t_exprs = [["x*y + 2", "sin(z)", "y"],
               ["sin(z)", "cos(x*z)", "x - z"],
               ["y", "x - z", "exp(y) + 1"]]
    pts = charts.sample_points(rand3, 3)
    for where in (pts, pts[1]):
        fr = CurvatureFrame(rand3, where)
        t = fr.scalar_jet(t_exprs)
        one_less = t.truncated(fr.order - 1)
        assert t.order == fr.order
        tf = fr.trace_free(t)
        assert same_bits(tf.coeffs, fr.trace_free(one_less).coeffs)
        assert np.abs(fr.trace(tf).value).max() <= 1e-13
        for got, want in ((fr.trace(t), fr.trace(one_less)),
                          (fr.mixed(t), fr.mixed(one_less)),
                          (fr.inner_sym2(t, t), fr.inner_sym2(one_less, t)),
                          (fr.norm2_sym2(t), fr.norm2_sym2(one_less))):
            assert got.order == fr.order - 1
            assert same_bits(got.coeffs, want.coeffs)
    # a point set's values are those of its points
    batch = CurvatureFrame(rand3, pts)
    tf = batch.trace_free(batch.scalar_jet(t_exprs)).value
    for k, p in enumerate(pts):
        fr = CurvatureFrame(rand3, p)
        one = fr.trace_free(fr.scalar_jet(t_exprs)).value
        assert same_bits(tf[..., k], one)


def test_killing_fields_on_sphere():
    s2 = charts.round_sphere(2)
    fr = CurvatureFrame(s2, [0.9, 1.7])
    # rotation about the polar axis
    lz = values(fr.lie_metric(fr.vector_jets(["0", "1"])))
    assert np.abs(lz).max() <= 1e-14
    # rotation about an equatorial axis
    lx = values(fr.lie_metric(fr.vector_jets(
        ["-sin(ph)", "-cos(ph)*cos(th)/sin(th)"])))
    assert np.abs(lx).max() <= 1e-13


def test_lie_derivative_of_gradient_is_twice_hessian(rand3_frame):
    fr = rand3_frame
    f = fr.scalar_jet("sin(x)*cos(y) + 0.5*z^2*x")
    X = fr.gradient_vector(f)
    lie = values(fr.lie_metric(X))
    hess = values(fr.hessian(f))
    assert np.abs(lie - 2 * hess).max() <= 1e-12


def test_divergence_vector_matches_oneform_route(rand3_frame):
    fr = rand3_frame
    X = fr.vector_jets(["sin(y)", "cos(x)*z", "0.3*x"])
    div_v = fr.divergence_vector(X).value
    n = fr.n
    # lower the index entry by entry and take the one-form divergence
    g3 = fr.g.truncated(X.order)
    al = []
    for j in range(n):
        acc = g3[0, j] * X[0]
        for i in range(1, n):
            acc = acc + g3[i, j] * X[i]
        al.append(acc)
    al = Jet(n, X.order, np.stack([a.coeffs for a in al]))
    div_f = fr.trace(fr.cov_deriv(al)).value
    assert abs(div_v - div_f) <= 1e-12


def test_trace_free_part(rand3_frame):
    fr = rand3_frame
    tf = fr.trace_free(fr.ricci)
    assert abs(fr.trace(tf).value) <= 1e-13
    # norm^2 decomposition: |T|^2 = |T̊|^2 + (tr T)^2 / n
    full = fr.norm2_sym2(fr.ricci).value
    part = fr.norm2_sym2(tf).value + fr.trace(fr.ricci).value ** 2 / fr.n
    assert abs(full - part) <= 1e-12


def test_einstein_residual_vanishes_on_einstein_spaces():
    fr = CurvatureFrame(charts.round_sphere(3), [1.0, 1.2, 0.8])
    assert np.abs(values(fr.trace_free(fr.ricci))).max() <= 1e-12
    frb = CurvatureFrame(charts.berger_sphere(1.5), [0.7, 1.1, 0.4])
    assert np.abs(values(frb.trace_free(frb.ricci))).max() > 1e-2


# ----------------------------------------------------------------------
# independent finite-difference oracle
# ----------------------------------------------------------------------
def test_pipeline_matches_fd_oracle_3d(rand3):
    pt = [0.3, -0.4, 0.25]
    mine = pipeline_pack(CurvatureFrame(rand3, pt), deep=True)
    ref = fdcheck.geometry_from_chart(rand3).pack(pt, deep=True)
    for key, val in mine.items():
        r = np.asarray(ref[key])
        scale = max(1.0, np.abs(r).max())
        assert np.abs(np.asarray(val) - r).max() / scale <= 1e-9, key


def test_pipeline_matches_fd_oracle_2d():
    chart = generic_chart(
        [["1.5 + 0.4*sin(x)*sin(y)", "0.2*cos(x - y)"],
         ["0.2*cos(x - y)", "2.0 + 0.3*cos(x)"]], ("x", "y"))
    pt = [0.45, -0.3]
    mine = pipeline_pack(CurvatureFrame(chart, pt), deep=True)
    ref = fdcheck.geometry_from_chart(chart).pack(pt, deep=True)
    for key, val in mine.items():
        r = np.asarray(ref[key])
        scale = max(1.0, np.abs(r).max())
        assert np.abs(np.asarray(val) - r).max() / scale <= 1e-9, key


# ----------------------------------------------------------------------
# Bach tensor
# ----------------------------------------------------------------------
def test_bach_product_hand_value():
    # R^2 x S^2(1): B = -(1/6) g on the flat block, +(1/6) g on the sphere
    m = charts.get_example("r2_x_s2")
    fr = CurvatureFrame(m, [0.1, -0.2, 1.2, 0.7])
    b = values(fr.bach)
    g = values(fr.g)
    ref = np.zeros((4, 4))
    ref[:2, :2] = -g[:2, :2] / 6.0
    ref[2:, 2:] = +g[2:, 2:] / 6.0
    assert np.abs(b - ref).max() <= 1e-12


def test_bach_vanishes_on_conformally_einstein_products():
    # S^2(1) x S^2(1) and S^2(1) x H^2(-1) are Bach-flat
    for name in ("s2_x_s2", "r2_x_h2"):
        m = charts.get_example(name)
        pt = m.center() + 0.1
        fr = CurvatureFrame(m, pt)
        b = values(fr.bach)
        if name == "s2_x_s2":
            assert np.abs(b).max() <= 1e-11
    m = charts.product([charts.round_sphere(2, 1.0),
                        charts.hyperbolic_2(1.0)])
    fr = CurvatureFrame(m, [1.1, 0.4, 0.2, 1.3])
    assert np.abs(values(fr.bach)).max() <= 1e-11


def test_bach_trace_free_and_conformal_generic():
    entries = [
        ["2 + 0.2*sin(x)*cos(y)", "0.1*sin(x+z)", "0.05*cos(y)*z",
         "0.04*sin(w+x)"],
        ["0.1*sin(x+z)", "1.5 + 0.15*cos(x)^2", "0.08*sin(y)*cos(z)",
         "0.03*cos(w)*y"],
        ["0.05*cos(y)*z", "0.08*sin(y)*cos(z)", "1.8 + 0.2*sin(y+z)",
         "0.06*sin(z+w)"],
        ["0.04*sin(w+x)", "0.03*cos(w)*y", "0.06*sin(z+w)",
         "2.2 + 0.1*cos(x+w)"],
    ]
    chart = generic_chart(entries, ("x", "y", "z", "w"))
    pt = [0.3, -0.4, 0.25, 0.15]
    fr = CurvatureFrame(chart, pt)
    b = values(fr.bach)
    gi = values(fr.ginv)
    assert abs(np.einsum("ij,ij->", gi, b)) <= 1e-12
    # conformal covariance with weight -2
    u = "0.2*sin(x) + 0.1*cos(y + z) + 0.05*w"
    frc = CurvatureFrame(charts.conformal(chart, u), pt)
    uval = (0.2 * math.sin(pt[0]) + 0.1 * math.cos(pt[1] + pt[2])
            + 0.05 * pt[3])
    bc = values(frc.bach)
    assert np.abs(bc - math.exp(-2 * uval) * b).max() <= 1e-10


def test_bach_divergence_free_exactly():
    m = charts.get_example("r2_x_s2")
    db = bach_divergence(m, [0.1, -0.2, 1.2, 0.7])
    assert np.abs(db).max() <= 1e-12


def _bumpy_s2_x_t2():
    return charts.conformal(charts.get_example("s2_x_t2"),
                            "0.1*cos(th)*cos(t0)", name="bumpy_s2_x_t2")


def test_order5_frame_reproduces_order4_pack_bitwise():
    for chart in (_bumpy_s2_x_t2(), charts.berger_sphere(1.5),
                  charts.round_sphere(2),
                  charts.get_example("r2_x_s2")):
        pt = charts.sample_points(chart, 2)[1]
        four = pipeline_pack(CurvatureFrame(chart, pt), deep=True)
        five = pipeline_pack(CurvatureFrame(chart, pt, order=5), deep=True)
        assert five.keys() == four.keys()
        for key, val in four.items():
            assert np.array_equal(five[key], val), (chart.name, key)


@pytest.mark.slow
def test_bach_gradient_matches_oracle_stencil():
    # away from the pole, where the oracle's nested stencils at their
    # default step lose digits (not the jets: the gap shrinks as h^4)
    chart = _bumpy_s2_x_t2()
    pt = charts.sample_points(chart, 2)[1]
    mine = CurvatureFrame(chart, pt, order=5).bach.grad().value
    geo = fdcheck.geometry_from_chart(chart)
    with fdcheck._oracle_point(pt) as p:
        ref = np.array([geo._dtensor(geo.bach, p, a) for a in range(4)],
                       dtype=float)
    assert np.abs(mine - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())


def test_grad_lap_scalar_stencil_matches_oracle():
    chart = generic_chart(
        [["1.5 + 0.4*sin(x)*sin(y)", "0.2*cos(x - y)"],
         ["0.2*cos(x - y)", "2.0 + 0.3*cos(x)"]], ("x", "y"))
    pt = np.array([0.45, -0.3])
    mine = grad_lap_scalar(chart, pt)
    geo = fdcheck.geometry_from_chart(chart)
    with fdcheck._oracle_point(pt) as p:
        ref = np.array([geo._dtensor(geo.lap_scalar, p, a)
                        for a in range(2)], dtype=float)
    assert np.abs(mine - ref).max() <= 1e-11


# ----------------------------------------------------------------------
# dimension and order guards
# ----------------------------------------------------------------------
def test_schouten_undefined_in_dim2():
    fr = CurvatureFrame(charts.round_sphere(2), [1.0, 1.0])
    with pytest.raises(CurvatureError, match="Schouten"):
        fr.schouten  # noqa: B018


def test_bach_requires_dim4(rand3_frame):
    with pytest.raises(CurvatureError, match="n = 4"):
        rand3_frame.bach  # noqa: B018


def test_order_budget_is_enforced(rand3_frame):
    fr = rand3_frame
    with pytest.raises(JetOrderError):
        fr.cov_deriv(fr.lap_ricci)  # order 0 cannot be differentiated


def test_point_dimension_guard(rand3):
    with pytest.raises(CurvatureError, match="coordinates"):
        CurvatureFrame(rand3, [0.1, 0.2])


def test_catalog_frames_all_run():
    for name in charts.catalog_names():
        m = charts.get_example(name)
        fr = CurvatureFrame(m, m.center())
        assert np.isfinite(fr.scalar.value)


# ----------------------------------------------------------------------
# frames over a point set
# ----------------------------------------------------------------------
@pytest.mark.parametrize("order", [4, 5])
def test_point_set_frame_equals_its_points_bitwise(order):
    for name in charts.catalog_names():
        chart = charts.get_example(name)
        pts = charts.sample_points(chart, 3)
        batch = pipeline_pack(CurvatureFrame(chart, pts, order=order))
        for k, p in enumerate(pts):
            one = pipeline_pack(CurvatureFrame(chart, p, order=order))
            assert one.keys() == batch.keys()
            for key, val in one.items():
                assert np.array_equal(np.asarray(batch[key])[..., k], val), \
                    (name, order, k, key)


def test_point_set_singular_metric_names_its_node():
    # the round sphere's chart metric diag(1, sin(th)^2) is singular at th = 0
    frame = CurvatureFrame(charts.round_sphere(2),
                           [[0.5, 0.1], [0.0, 0.2], [1.0, 0.3]])
    with pytest.raises(CurvatureError, match=r"node 1, point \(0\.0, 0\.2\)"):
        frame.ginv  # noqa: B018
    with pytest.raises(CurvatureError, match=r"singular at \(0\.0, 0\.2\)"):
        CurvatureFrame(charts.round_sphere(2), [0.0, 0.2]).ginv  # noqa: B018


def test_point_set_nan_stays_at_its_node():
    chart = charts.round_sphere(2)
    pts = np.array([[0.5, 0.1], [math.nan, 0.2], [1.0, 0.3]])
    s = CurvatureFrame(chart, pts).scalar.value
    assert np.isnan(s[1])
    for k in (0, 2):
        assert s[k] == CurvatureFrame(chart, pts[k]).scalar.value


def test_point_set_singular_metric_names_its_node_among_repeats():
    # nodes 0 and 1 share th, so the stages run on 2 distinct points; the
    # error still names the singular node by its number in the set
    frame = CurvatureFrame(charts.round_sphere(2),
                           [[0.5, 0.1], [0.5, 0.3], [0.0, 0.2]])
    with pytest.raises(CurvatureError, match=r"node 2, point \(0\.0, 0\.2\)"):
        frame.ginv  # noqa: B018


# ----------------------------------------------------------------------
# each distinct metric jet once
# ----------------------------------------------------------------------
def stage_points(monkeypatch) -> list[int]:
    """The points of every product the pipeline takes from now on: the
    longer point axis of its two operands (1 for one without)."""
    points: list[int] = []

    def counted(spec, a, b):
        points.append(max(1 if t.ndim == 0 else t.shape[-1] for t in (a, b)))
        return contract(spec, a, b)

    monkeypatch.setattr(curvature, "contract", counted)
    return points


def pack_columns(chart, points):
    """Every stage the oracle checks, over a point set in bounded frames."""
    return on_points(chart, points,
                     lambda fr: tuple(pipeline_pack(fr).values()))


def test_round_sphere_quadrature_runs_its_stages_once_per_theta(
        monkeypatch):
    # the metric diag(1, sin(th)^2) reads th alone: 6 of the 30 nodes
    chart = charts.round_sphere(2)
    nodes = charts.quadrature(chart, (6, 5)).nodes
    one, batched = per_point(monkeypatch, lambda: pack_columns(chart, nodes))
    assert all(same_bits(a, b) for a, b in zip(one, batched))
    orders = count_frames(monkeypatch)
    points = stage_points(monkeypatch)
    pack_columns(chart, nodes)
    assert orders == [(BASE_ORDER, 30), (BASE_ORDER, 6)]
    assert set(points) == {6}


def test_product_grid_runs_its_stages_once_per_theta(monkeypatch):
    # on s2 x t2 the metric reads th alone; th runs slowest in the grid, so
    # each frame of 8 nodes has one th, and the pack's stages run at 6
    # points in all, one per th
    chart = charts.get_example("s2_x_t2")
    nodes = charts.quadrature(chart, (6, 2, 2, 2)).nodes
    one, batched = per_point(monkeypatch, lambda: pack_columns(chart, nodes))
    assert all(same_bits(a, b) for a, b in zip(one, batched))
    orders = count_frames(monkeypatch)
    points = stage_points(monkeypatch)
    pack_columns(chart, nodes)
    assert orders == [(BASE_ORDER, 8), (BASE_ORDER, 1)] * 6
    assert set(points) == {1}


def test_signed_zeros_and_a_nan_node_are_points_of_their_own(monkeypatch):
    # the entry x is the coordinate's own jet, so -0.0 and 0.0 give metric
    # jets of other bits; nodes 0 and 3 share x and so their jets, and the
    # NaN node is one more point: 4 distinct of 5
    chart = generic_chart([["1", "x"], ["x", "1"]], ("x", "y"))
    pts = np.array([[0.0, 0.3], [-0.0, 0.3], [math.nan, 0.3], [0.0, 0.7],
                    [0.5, 0.3]])
    one, batched = per_point(monkeypatch, lambda: pack_columns(chart, pts))
    assert all(same_bits(a, b) for a, b in zip(one, batched))
    orders = count_frames(monkeypatch)
    points = stage_points(monkeypatch)
    scalar = pack_columns(chart, pts)[3]
    assert orders == [(BASE_ORDER, 5), (BASE_ORDER, 4)]
    assert set(points) == {4}
    assert np.isnan(scalar[2]) and np.all(np.isfinite(np.delete(scalar, 2)))
    g = CurvatureFrame(chart, pts).g.coeffs
    assert g[0, 1, 0, 0].tobytes() != g[0, 1, 1, 0].tobytes()


def test_a_set_with_no_repeats_builds_no_distinct_point_frame(monkeypatch):
    # Halton points repeat no metric jet, nor any coordinate
    chart = charts.get_example("s2_x_t2")
    pts = charts.sample_points(chart, 16)
    one, batched = per_point(monkeypatch, lambda: pack_columns(chart, pts))
    assert all(same_bits(a, b) for a, b in zip(one, batched))
    orders = count_frames(monkeypatch)
    points = stage_points(monkeypatch)
    pack_columns(chart, pts)
    assert orders == [(BASE_ORDER, 8)] * 2
    assert set(points) == {8}


# ----------------------------------------------------------------------
# point sets in bounded frames
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dim, order, step", [
    (4, 4, 8), (4, 5, 4), (4, 3, 16), (3, 4, 50),
    (2, 3, 896), (2, 4, 597), (2, 5, 426)])
def test_frames_are_bounded_by_their_largest_stage(monkeypatch, dim, order,
                                                   step):
    # the Riemann tensor of a frame holds dim**4 jets of the order's
    # coefficients per point; a frame holds at most 8 dim-4 order-4 points'
    chart = charts.flat_torus((1.0,) * dim)
    orders = count_frames(monkeypatch)
    out = on_points(chart, np.zeros((step + 1, dim)),
                    lambda fr: np.zeros(fr.batch), order)
    assert orders == [(order, step), (order, 1)]
    assert out.shape == (step + 1,)
    assert frame_bound(dim, order) == step


def test_on_points_joins_each_array_along_the_point_axis(monkeypatch):
    man = charts.get_example("s2_x_t2")
    pts = charts.sample_points(man, 11)
    orders = count_frames(monkeypatch)
    s, ric = on_points(man, pts, lambda fr: (fr.scalar.value,
                                             fr.ricci.value))
    assert orders == [(BASE_ORDER, 8), (BASE_ORDER, 3)]
    assert s.shape == (11,) and ric.shape == (4, 4, 11)
    for k, p in enumerate(pts):
        one = CurvatureFrame(man, p)
        assert s[k] == one.scalar.value
        assert np.array_equal(ric[..., k], one.ricci.value)


def test_on_points_rejects_what_is_not_a_point_set():
    chart = charts.round_sphere(2)
    for pts in (np.empty((0, 2)), [], [1.0, 0.5]):
        with pytest.raises(CurvatureError, match="N >= 1"):
            on_points(chart, pts, lambda fr: fr.scalar.value)


def test_suite_builds_no_frame_over_the_bound(monkeypatch):
    sizes = []
    init = CurvatureFrame.__init__

    def recorded(self, chart, point, order=BASE_ORDER):
        sizes.append((chart.dim, order, len(np.atleast_2d(point))))
        init(self, chart, point, order)

    monkeypatch.setattr(CurvatureFrame, "__init__", recorded)
    suite.run_suite()
    assert all(n <= frame_bound(dim, order) for dim, order, n in sizes)
    assert (4, BASE_ORDER, 8) in sizes


def test_every_frame_is_built_by_its_constructor():
    # `conftest.count_frames` wraps `CurvatureFrame.__init__`; a frame
    # made by `__new__` or a copy would evaluate stages it does not see
    for source in resources.files("bachlab").iterdir():
        if not source.name.endswith(".py"):
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("__new__", "__copy__",
                                         "__deepcopy__", "__reduce__",
                                         "__reduce_ex__"), source.name
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {a.name for a in node.names} | {node.module
                         if isinstance(node, ast.ImportFrom) else None}
                assert not names & {"copy", "pickle", "copyreg"}, \
                    source.name


def test_no_module_reads_a_stage_through_curvature_values():
    # `t.value` is the one way to read a stage's values in the package;
    # `curvature.values`, its old alias, stays only for outside callers
    for source in resources.files("bachlab").iterdir():
        if not source.name.endswith(".py"):
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"))
        modules = set()  # local names of the curvature module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").removeprefix("bachlab")
                names = {a.name for a in node.names}
                if module.lstrip(".") == "curvature":
                    assert "values" not in names, \
                        f"{source.name}: {ast.unparse(node)}"
                elif module.lstrip(".") == "" and "curvature" in names:
                    modules.update(a.asname or a.name for a in node.names
                                   if a.name == "curvature")
        calls = [ast.unparse(node) for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and (
                     isinstance(node.func, ast.Name)
                     and node.func.id == "values"
                     and source.name == "curvature.py"
                     or isinstance(node.func, ast.Attribute)
                     and node.func.attr == "values"
                     and isinstance(node.func.value, ast.Name)
                     and node.func.value.id in modules)]
        assert not calls, f"{source.name}: {calls}"
