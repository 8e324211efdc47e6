"""Catalog charts, quadrature, products, sampling and spec validation."""

import ast
import math
from importlib import resources

import numpy as np
import pytest
from scipy.stats import qmc

from bachlab import charts, exprs
from bachlab.charts import ChartError
from bachlab.jets import Jet

TWO_PI = 2.0 * math.pi


# ----------------------------------------------------------------------
# volumes against closed forms
# ----------------------------------------------------------------------
def test_sphere2_volume():
    s2 = charts.round_sphere(2)
    assert abs(charts.volume(s2) - 4 * math.pi) <= 1e-9
    s2r = charts.round_sphere(2, r=2.0)
    assert abs(charts.volume(s2r) - 16 * math.pi) <= 1e-8


def test_sphere3_volume():
    s3 = charts.round_sphere(3)
    assert abs(charts.volume(s3) - 2 * math.pi ** 2) <= 1e-9


def test_sphere4_volume():
    s4 = charts.round_sphere(4)
    assert abs(charts.volume(s4) - (8.0 / 3.0) * math.pi ** 2) <= 1e-9


def test_torus_volume_exact():
    t2 = charts.flat_torus((2.0, 3.0))
    assert abs(charts.volume(t2) - 6.0) <= 1e-12


def test_berger_volume_scales_linearly():
    for a in (0.5, 1.0, 1.5, 2.5):
        b = charts.berger_sphere(a)
        assert abs(charts.volume(b) - 2 * math.pi ** 2 * a) <= 1e-9


def test_surface_of_revolution_round_profile():
    # rho = sin t on (0, pi) is the unit round sphere in disguise
    srf = charts.surface_of_revolution("sin(t)")
    assert srf.compact
    assert abs(charts.volume(srf) - 4 * math.pi) <= 1e-9


def test_surface_of_revolution_open_profile_not_compact():
    srf = charts.surface_of_revolution("2 + cos(t)", 0.0, math.pi)
    assert not srf.compact
    with pytest.raises(ChartError):
        charts.volume(srf)


def test_surface_of_revolution_needs_a_finite_profile_at_both_ends():
    for rho in ("log(t)", "1/sin(t)", "sqrt(t - 1)"):
        with pytest.raises(ChartError, match="not finite at both ends"):
            charts.surface_of_revolution(rho)


def test_volume_stable_under_resolution_doubling():
    cases = [
        charts.round_sphere(2),
        charts.round_sphere(3),
        charts.berger_sphere(1.3),
        charts.flat_torus((TWO_PI, TWO_PI)),
        charts.surface_of_revolution("sin(t)"),
    ]
    for c in cases:
        v1 = charts.volume(c)
        v2 = charts.volume(c, resolution=[2 * r for r in c.resolution])
        assert abs(v1 - v2) <= 1e-10, c.name


def test_quadrature_takes_one_count_for_every_axis():
    for chart in (charts.round_sphere(2), charts.berger_sphere(1.5),
                  charts.circle()):
        for k in (1, 5):
            one = charts.quadrature(chart, k)
            per_axis = charts.quadrature(chart, (k,) * chart.dim)
            assert one.shape == per_axis.shape == (k,) * chart.dim
            assert np.array_equal(one.nodes, per_axis.nodes)
            assert np.array_equal(one.weights, per_axis.weights)
    with pytest.raises(ChartError, match="needs 2 axis counts"):
        charts.quadrature(charts.round_sphere(2), (4, 4, 4))


# ----------------------------------------------------------------------
# integrals of known fields
# ----------------------------------------------------------------------
def test_sphere_first_moment_vanishes():
    s2 = charts.round_sphere(2)
    q = charts.quadrature(s2)
    val = charts.integrate(s2, lambda pts: np.cos(pts[:, 0]), quad=q)
    assert abs(val) <= 1e-12


def test_sphere_second_moment():
    s2 = charts.round_sphere(2)
    q = charts.quadrature(s2)
    val = charts.integrate(s2, lambda pts: np.cos(pts[:, 0]) ** 2, quad=q)
    assert abs(val - 4 * math.pi / 3) <= 1e-9


def test_integrate_accepts_callable():
    s2 = charts.round_sphere(2)
    val = charts.integrate(s2, lambda pts: np.cos(pts[:, 0]) ** 2)
    assert abs(val - 4 * math.pi / 3) <= 1e-9


def test_integrate_columns_form_the_measure_once(monkeypatch):
    b = charts.berger_sphere(1.4)
    q = charts.quadrature(b, 6)
    al, be = q.nodes[:, 0], q.nodes[:, 1]
    cols = [np.cos(be) ** 2 + np.sin(al), 2.5,
            lambda pts: np.sin(pts[:, 0])]
    singles = [charts.integrate(b, c, quad=q) for c in cols]
    density = charts.volume_density
    # weights * density * f, as one integral was formed before
    assert singles[0] == float(np.sum(q.weights * density(b, q.nodes)
                                      * cols[0]))
    calls = []
    monkeypatch.setattr(charts, "volume_density",
                        lambda *a: calls.append(a) or density(*a))
    assert charts.integrate_columns(b, cols, quad=q) == singles
    assert len(calls) == 1


def test_berger_character_integral_matches_round_value():
    # The normalized Haar integral of |tr U|^2 over SU(2) equals 1 for the
    # fundamental character tr U = 2 cos(be/2) cos((al+ga)/2), and squashing
    # rescales the volume but not the normalized Haar measure.
    def character_squared(pts):
        al, be, ga = pts.T
        return (2 * np.cos(be / 2) * np.cos((al + ga) / 2)) ** 2

    for a in (1.0, 1.5):
        b = charts.berger_sphere(a)
        q = charts.quadrature(b)
        val = charts.integrate(b, character_squared, quad=q)
        assert abs(val - charts.volume(b)) <= 1e-9


def test_berger_quadrature_shift_invariance():
    # Left/right translations act by shifting al and ga; the periodic
    # midpoint rule reproduces the invariance of the Haar integral.
    b = charts.berger_sphere(1.4)
    q = charts.quadrature(b)

    def f(pts, s_al=0.0, s_ga=0.0):
        return np.sin(pts[:, 0] + s_al) ** 2 * np.cos(pts[:, 1]) ** 4 \
            * np.cos((pts[:, 2] + s_ga) / 2.0) ** 2

    base = charts.integrate(b, f(q.nodes), quad=q)
    shifted = charts.integrate(b, f(q.nodes, 0.37, 1.23), quad=q)
    # the integrand is not bi-invariant, but its Haar integral over the
    # full group is invariant under translations of either angle
    assert abs(base - shifted) <= 1e-9


# ----------------------------------------------------------------------
# metric entries
# ----------------------------------------------------------------------
def test_berger_metric_matches_frame_construction():
    a = 1.5
    b = charts.berger_sphere(a)
    al, be, ga = 0.7, 1.1, 0.4
    s1 = np.array([math.sin(ga) * math.sin(be), math.cos(ga), 0.0])
    s2 = np.array([math.cos(ga) * math.sin(be), -math.sin(ga), 0.0])
    s3 = np.array([math.cos(be), 0.0, 1.0])
    ref = 0.25 * (a * a * np.outer(s1, s1) + np.outer(s2, s2)
                  + np.outer(s3, s3))
    got = b.metric_values(np.array([[al, be, ga]]))[0]
    assert np.abs(ref - got).max() <= 1e-14


def test_berger_round_limit_is_round_sphere_volume():
    b = charts.berger_sphere(1.0)
    assert abs(charts.volume(b) - 2 * math.pi ** 2) <= 1e-9


def test_positive_definite_everywhere_on_catalog():
    for name in charts.catalog_names():
        c = charts.get_example(name)
        if c.compact:
            pts = charts.quadrature(c).nodes
        else:
            pts = charts.sample_points(c, 64)
        assert np.all(charts.volume_density(c, pts) > 0)


def test_metric_jets_shape_and_value():
    s2 = charts.round_sphere(2)
    pt = [1.0, 0.5]
    jets = s2.metric_jets(pt)
    assert isinstance(jets, Jet) and jets.shape == (2, 2)
    assert jets[0][0].value == 1.0
    assert abs(jets[1][1].value - math.sin(1.0) ** 2) <= 1e-15
    # d/dth of g_phph = 2 sin th cos th
    assert abs(jets[1][1].partial((1, 0))
               - 2 * math.sin(1.0) * math.cos(1.0)) <= 1e-14


def test_conformal_wrapper_scales_metric():
    s2 = charts.round_sphere(2)
    c = charts.conformal(s2, "0.3*cos(th)")
    pt = np.array([[1.2, 0.7]])
    g0 = s2.metric_values(pt)[0]
    g1 = c.metric_values(pt)[0]
    scale = math.exp(2 * 0.3 * math.cos(1.2))
    assert np.abs(g1 - scale * g0).max() <= 1e-12


@pytest.mark.parametrize("u", ["0", "0.3*cos(th)", "0.2*sin(th)*sin(ph)",
                               "0.1*cos(th)^2 - 0.05*cos(ph)"])
def test_conformal_round_sphere_is_the_conformal_sphere(u):
    c = charts.conformal_round_sphere(u, r=1.3)
    ref = charts.conformal(charts.round_sphere(2, 1.3), u)
    assert (c.name, c.kind) == ("conformal_round_sphere",
                                "conformal_round_sphere")
    assert c.metric_strs == ref.metric_strs and c.params == ref.params
    assert (c.lo, c.hi, c.periodic, c.compact) == (ref.lo, ref.hi,
                                                   ref.periodic, ref.compact)
    assert c.resolution == ref.resolution and c.volume is None


@pytest.mark.parametrize("chart, u", [
    (charts.round_sphere(2), "0.3*cos(th) - 0.1"),
    (charts.berger_sphere(1.3), "0.2*sin(be)*cos(al)"),
    (charts.conformal(charts.flat_torus(), "0.1*sin(t0)"), "-0.2*cos(t1)"),
])
def test_conformal_entries_are_the_factor_times_the_entry(chart, u):
    c = charts.conformal(chart, u)
    names = (chart.coords, tuple(chart.params))
    factor = exprs.Call("exp", exprs.Mul(exprs.Num(2.0),
                                         exprs.parse(u, *names)))
    for row, ref_row in zip(c.metric_strs, chart.metric_strs):
        for text, entry in zip(row, ref_row):
            if entry == "0":
                assert text == "0"
            else:
                assert exprs.parse(text, *names) == exprs.Mul(
                    factor, exprs.parse(entry, *names))


def test_conformal_reports_a_bad_factor_at_its_own_offset():
    with pytest.raises(exprs.DslNameError) as err:
        charts.conformal(charts.round_sphere(2), "0.3*cos(zz)")
    assert err.value.pos == 8


def test_hyperbolic_metric_values():
    h = charts.hyperbolic_2(r=2.0)
    g = h.metric_values(np.array([[0.3, 1.5]]))[0]
    assert abs(g[0, 0] - 4.0 / 1.5 ** 2) <= 1e-15
    assert abs(g[0, 1]) == 0.0


@pytest.mark.parametrize("name", charts.catalog_names())
def test_metric_values_equal_per_entry_values_bitwise(name):
    # one evaluation of all entries shares subtrees, with the same bits
    chart = charts.get_example(name)
    pts = charts.sample_points(chart, 5)
    env = {**chart.params, **dict(zip(chart.coords, pts.T))}
    want = np.empty((len(pts), chart.dim, chart.dim))
    for i, row in enumerate(chart.metric):
        for j, e in enumerate(row):
            want[:, i, j] = exprs.eval_numpy(e, env)
    assert chart.metric_values(pts).tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# products
# ----------------------------------------------------------------------
def test_product_volume_multiplies():
    m = charts.get_example("s2_x_s2")
    v = charts.volume(m)
    assert abs(v - (4 * math.pi) ** 2) <= 1e-9 * (4 * math.pi) ** 2
    mt = charts.get_example("s2_x_t2")
    vt = charts.volume(mt)
    ref = 4 * math.pi * TWO_PI ** 2
    assert abs(vt - ref) <= 1e-9 * ref
    sb = charts.get_example("circle_x_berger")
    vb = charts.volume(sb)
    ref = TWO_PI * 2 * math.pi ** 2 * 1.5
    assert abs(vb - ref) <= 1e-9 * ref


def test_product_closed_form_volume_field():
    m = charts.get_example("s2_x_t2")
    assert m.volume is not None
    assert abs(m.volume - 4 * math.pi * TWO_PI ** 2) <= 1e-9


def test_product_coordinate_renaming():
    m = charts.get_example("s2_x_s2")
    assert m.coords == ("th", "ph", "th_2", "ph_2")
    assert m.factor_slice(0) == slice(0, 2)
    assert m.factor_slice(1) == slice(2, 4)
    g = m.metric_values(np.array([[0.5, 0.1, 1.3, 2.0]]))[0]
    assert abs(g[3, 3] - math.sin(1.3) ** 2) <= 1e-15
    assert np.abs(g[:2, 2:]).max() == 0.0


def test_factor_slices_follow_from_the_factor_dims():
    m = charts.product([charts.circle(), charts.circle(),
                        charts.round_sphere(2)])
    assert m.coords == ("t", "t_2", "th", "ph")
    assert [m.factor_slice(k) for k in range(3)] == [
        slice(0, 1), slice(1, 2), slice(2, 4)]
    assert charts.round_sphere(3).factor_slice(0) == slice(0, 3)


def test_product_parameter_renaming_on_clash():
    big = charts.product(
        [charts.round_sphere(2, r=1.0), charts.round_sphere(2, r=2.0)])
    assert set(big.params) == {"r", "r_2"}
    g = big.metric_values(np.array([[0.5, 0.1, 0.5, 0.1]]))[0]
    assert abs(g[2, 2] - 4.0) <= 1e-15
    assert abs(g[0, 0] - 1.0) <= 1e-15


def test_product_equal_parameters_merge():
    big = charts.product(
        [charts.round_sphere(2, r=1.0), charts.round_sphere(2, r=1.0)])
    assert set(big.params) == {"r"}


def test_nested_product_coordinates_take_the_next_free_suffix():
    # the line's coordinate clashes three times in factor 2 of each level
    inner = charts.product([charts.line(), charts.line()])
    middle = charts.product([inner, charts.line()])
    assert middle.coords == ("t", "t_2", "t_2b")
    outer = charts.product([middle, charts.line()])
    assert outer.coords == ("t", "t_2", "t_2b", "t_2c")


def _scaled_line(a: float) -> charts.Chart:
    return charts.Chart(name=f"line_{a:g}", kind="custom", coords=("s",),
                        metric_strs=(("a^2",),), params={"a": a},
                        lo=(0.0,), hi=(1.0,), periodic=(False,),
                        compact=False, resolution=(4,))


def test_nested_product_parameters_never_replace_one_another():
    inner = charts.product([_scaled_line(1.0), _scaled_line(2.0)])
    assert inner.params == {"a": 1.0, "a_2": 2.0}
    outer = charts.product([inner, _scaled_line(3.0)])
    assert outer.coords == ("s", "s_2", "s_2b")
    assert outer.params == {"a": 1.0, "a_2": 2.0, "a_2b": 3.0}
    g = outer.metric_values(np.array([[0.5, 0.5, 0.5]]))[0]
    assert np.array_equal(g, np.diag([1.0, 4.0, 9.0]))
    # an equal value already under a suffixed name is shared there
    inner = charts.product([_scaled_line(1.0), _scaled_line(3.0)])
    outer = charts.product([inner, _scaled_line(3.0)])
    assert outer.params == {"a": 1.0, "a_2": 3.0}
    g = outer.metric_values(np.array([[0.5, 0.5, 0.5]]))[0]
    assert np.array_equal(g, np.diag([1.0, 9.0, 9.0]))


def _coordinate_named(name: str) -> charts.Chart:
    return charts.Chart(name=f"line_{name}", kind="custom", coords=(name,),
                        metric_strs=((f"1 + {name}^2",),), params={},
                        lo=(0.0,), hi=(1.0,), periodic=(False,),
                        compact=False, resolution=(4,))


@pytest.mark.parametrize("reverse, coords, params", [
    (False, ("s", "a_2"), {"a": 1.5}),
    (True, ("a", "s"), {"a_2": 1.5}),
])
def test_product_coordinates_and_parameters_share_one_namespace(
        reverse, coords, params):
    # a parameter named a in one factor, a coordinate named a in the other
    factors = [_scaled_line(1.5), _coordinate_named("a")]
    factors = factors[::-1] if reverse else factors
    m = charts.product(factors)
    assert (m.coords, m.params) == (coords, params)
    pt = np.array([[0.3, 0.6]])
    g = m.metric_values(pt)[0]
    block = np.zeros_like(g)
    for k, f in enumerate(factors):
        sl = m.factor_slice(k)
        block[sl, sl] = f.metric_values(pt[:, sl])[0]
    assert np.array_equal(g, block)


def _flat_torus_with_metric(metric_strs, params=None) -> charts.Chart:
    return charts.Chart(name="custom_torus", kind="custom",
                        coords=("x", "y"), metric_strs=metric_strs,
                        params=params or {}, lo=(0.0, 0.0),
                        hi=(TWO_PI, TWO_PI),
                        periodic=(True, True), compact=True,
                        resolution=(4, 4))


def test_chart_rejects_repeated_coordinate_names():
    # every evaluator would read x from the last axis, and the first axis
    # would be a dead coordinate: g_00 = 1 + 0.2^2 at (0.5, 0.2)
    with pytest.raises(ChartError, match="repeated coordinate name 'x'"):
        charts.Chart(name="twice_x", kind="custom", coords=("x", "x"),
                     metric_strs=(("1+x^2", "0"), ("0", "1")), params={},
                     lo=(0.0, 0.0), hi=(1.0, 1.0), periodic=(False, False),
                     compact=False, resolution=(4, 4))
    with pytest.raises(ChartError, match="repeated coordinate name 'y'"):
        charts.Chart(name="twice_y", kind="custom", coords=("x", "y", "y"),
                     metric_strs=(("1", "0", "0"), ("0", "1", "0"),
                                  ("0", "0", "1")), params={},
                     lo=(0.0,) * 3, hi=(1.0,) * 3, periodic=(False,) * 3,
                     compact=False, resolution=(4,) * 3)


def test_volume_needs_a_positive_definite_metric():
    # det g = 1 > 0 at every node, but g is negative definite
    negative = _flat_torus_with_metric((("-1", "0"), ("0", "-1")))
    with pytest.raises(ChartError, match="at 16 node"):
        charts.volume(negative)
    with pytest.raises(ChartError, match="at 16 node"):
        charts.volume_density(negative, charts.quadrature(negative).nodes)


def test_volume_needs_an_exactly_symmetric_metric():
    skew = _flat_torus_with_metric((("1", "0.1"),
                                    ("0.1000000000000001", "1")))
    with pytest.raises(ChartError, match="not symmetric positive definite"):
        charts.volume(skew)


@pytest.mark.parametrize("c", [math.inf, math.nan])
def test_volume_needs_a_finite_metric(c):
    unbounded = _flat_torus_with_metric((("c", "0"), ("0", "1")), {"c": c})
    with pytest.raises(ChartError, match="at 16 node"):
        charts.volume(unbounded)


def test_product_dimension_cap():
    with pytest.raises(ChartError):
        charts.product([charts.euclidean(3), charts.round_sphere(2)])


def test_no_module_but_curvature_reads_a_chart_attribute():
    # a manifold is its chart, so the package reads no `.chart` on it;
    # `Chart.chart` stays only for outside callers.  A curvature frame
    # holds its chart as `frame.chart`.
    for source in resources.files("bachlab").iterdir():
        if not source.name.endswith(".py") or source.name == "curvature.py":
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"))
        reads = [ast.unparse(node) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "chart"]
        assert not reads, f"{source.name}: {reads}"


def test_line_x_berger_blocks():
    m = charts.get_example("line_x_berger")
    assert m.dim == 4
    assert m.factors[0].kind == "line"
    assert m.factors[1].kind == "berger_sphere"
    pt = m.center()
    g = m.metric_values(np.array([pt]))[0]
    assert g[0, 0] == 1.0
    assert np.abs(g[0, 1:]).max() == 0.0
    assert not m.compact  # line factor is a patch


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------
def test_sampling_is_deterministic():
    s2 = charts.round_sphere(2)
    p1 = charts.sample_points(s2, 25)
    p2 = charts.sample_points(s2, 25)
    assert np.array_equal(p1, p2)


def test_sampling_respects_interior_margins():
    s2 = charts.round_sphere(2)
    pts = charts.sample_points(s2, 200, margin=0.08)
    th = pts[:, 0]
    assert th.min() >= 0.08 * math.pi - 1e-12
    assert th.max() <= math.pi * (1 - 0.08) + 1e-12
    ph = pts[:, 1]
    assert ph.min() >= 0.0 and ph.max() < TWO_PI


def test_sampling_margin_zero_on_periodic_only():
    t2 = charts.flat_torus((1.0, 1.0))
    pts = charts.sample_points(t2, 50)
    assert pts.min() >= 0.0 and pts.max() < 1.0


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_halton_is_scipy_unscrambled_halton_bit_for_bit(dim):
    for n in [*range(1, 301), 1000]:
        ref = qmc.Halton(d=dim, scramble=False).random(n)
        ours = charts._halton(dim, n)
        assert ours.shape == ref.shape
        assert np.array_equal(ours.view(np.uint64), ref.view(np.uint64)), n


@pytest.mark.parametrize("count", [0, -1, 2.5, True, np.float64(3.0)])
def test_sample_count_must_be_a_whole_number_of_points(count):
    # np.arange(2.5) has 3 points and np.arange(True) has 1: a count that
    # is not a whole number is refused, not rounded
    with pytest.raises(ChartError, match="at least one point"):
        charts.sample_points(charts.round_sphere(2), count)


# ----------------------------------------------------------------------
# spec documents and the catalog registry
# ----------------------------------------------------------------------
def test_catalog_examples_all_build():
    for name in charts.catalog_names():
        m = charts.get_example(name)
        assert m.dim <= 4
        d = charts.describe(m)
        assert d["name"] == name
        assert len(d["metric"]) == m.dim


def test_manifold_spec_rejects_unknown_fields():
    with pytest.raises(ChartError, match="unknown manifold fields"):
        charts.manifold_from_spec({"name": "x", "factors": [
            {"kind": "euclidean"}], "extra": 1})
    with pytest.raises(ChartError, match="unknown factor fields"):
        charts.manifold_from_spec({"name": "x", "factors": [
            {"kind": "euclidean", "weird": True}]})
    with pytest.raises(ChartError, match="unknown factor kind"):
        charts.manifold_from_spec({"name": "x", "factors": [
            {"kind": "donut"}]})
    with pytest.raises(ChartError, match="unknown params"):
        charts.manifold_from_spec({"name": "x", "factors": [
            {"kind": "round_sphere", "params": {"n": 2, "radius": 1.0}}]})


@pytest.mark.parametrize("factors, message", [
    ([5], "a factor must be an object"),
    ("round_sphere", "non-empty 'factors' list"),
    ([{"kind": "round_sphere", "params": [1, 2]}], "must be an object"),
    ([{"kind": "flat_torus", "params": {"lengths": 5}}], "param 'lengths'"),
    ([{"kind": "flat_torus", "params": {"lengths": [1.0, True]}}],
     "param 'lengths'"),
    ([{"kind": "euclidean", "params": {"n": True}}], "param 'n'"),
    ([{"kind": "euclidean", "params": {"n": 2.0}}], "param 'n'"),
    ([{"kind": "round_sphere", "params": {"r": False}}], "param 'r'"),
    ([{"kind": "round_sphere", "params": {"r": "2"}}], "param 'r'"),
    ([{"kind": "berger_sphere", "params": {"a": math.inf}}], "param 'a'"),
    ([{"kind": "conformal_round_sphere", "params": {"u": 0.2}}], "param 'u'"),
    ([{"kind": ["line"]}], "unknown factor kind"),
])
def test_manifold_spec_rejects_mistyped_entries(factors, message):
    # a boolean is not the number 1, and no entry ends in a TypeError
    with pytest.raises(ChartError, match=message):
        charts.manifold_from_spec({"factors": factors})


def test_manifold_spec_takes_numbers_of_either_kind():
    m = charts.manifold_from_spec({"factors": [
        {"kind": "round_sphere", "params": {"n": 2, "r": 2}},
        {"kind": "flat_torus", "params": {"lengths": [6, 7.5]}}]})
    assert m.params["r"] == 2.0
    assert m.hi[2:] == (6.0, 7.5)


def test_manifold_spec_resolution_override():
    m = charts.manifold_from_spec({"name": "s", "factors": [
        {"kind": "round_sphere", "params": {"n": 2}, "resolution": 10}]})
    assert m.resolution == (10, 10)
    m2 = charts.manifold_from_spec({"name": "s", "factors": [
        {"kind": "round_sphere", "params": {"n": 2},
         "resolution": [10, 14]}]})
    assert m2.resolution == (10, 14)
    with pytest.raises(ChartError, match="resolution"):
        charts.manifold_from_spec({"name": "s", "factors": [
            {"kind": "round_sphere", "params": {"n": 2},
             "resolution": [10, 14, 3]}]})


@pytest.mark.parametrize("name", [5, True, ["line"], {"n": "x"}])
def test_manifold_spec_name_must_be_text(name):
    with pytest.raises(ChartError, match="name must be text"):
        charts.manifold_from_spec({"name": name,
                                   "factors": [{"kind": "line"}]})


def test_manifold_spec_requires_factors():
    with pytest.raises(ChartError, match="factors"):
        charts.manifold_from_spec({"name": "x"})


def test_unknown_catalog_name():
    with pytest.raises(ChartError, match="unknown catalog manifold"):
        charts.get_example("moebius")


def test_sphere_chart_excludes_poles():
    s2 = charts.round_sphere(2)
    q = charts.quadrature(s2)
    th = q.nodes[:, 0]
    assert th.min() > 1e-3 and th.max() < math.pi - 1e-3
    # metric is invertible at every node
    g = s2.metric_values(q.nodes)
    assert np.linalg.det(g).min() > 0


def test_center_is_interior():
    for name in charts.catalog_names():
        c = charts.get_example(name)
        mid = c.center()
        assert np.all(mid > np.asarray(c.lo))
        assert np.all(mid < np.asarray(c.hi))
