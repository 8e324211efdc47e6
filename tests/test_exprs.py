"""Expression DSL: grammar, precedence, errors, round-trip, evaluation."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bachlab import charts, exprs, fdcheck, jets
from bachlab.exprs import (Add, Call, Div, DslError, DslNameError,
                           DslSyntaxError, Mul, Neg, Num, Par, Pow, Sub, Var,
                           eval_float, eval_jet, eval_numpy, parse, pretty)
from bachlab.jets import JetDomainError


# ----------------------------------------------------------------------
# parsing and precedence
# ----------------------------------------------------------------------
def test_parse_sin_squared():
    e = parse("sin(x0)^2", coords=["x0"])
    assert e == Pow(Call("sin", Var("x0", 0)), 2)


def test_parse_rational_value():
    e = parse("1/(1+x0^2)", coords=["x0"])
    assert eval_float(e, {"x0": 0.0}) == 1.0


def test_unary_minus_binds_looser_than_power():
    e = parse("-x0^2", coords=["x0"])
    assert e == Neg(Pow(Var("x0", 0), 2))
    assert eval_float(e, {"x0": 2.0}) == -4.0


def test_left_associative_subtraction_and_division():
    assert eval_float(parse("2-3-4", []), {}) == -5.0
    assert eval_float(parse("2/4/2", []), {}) == 0.25


def test_negative_integer_exponent():
    e = parse("x0^-2", coords=["x0"])
    assert e == Pow(Var("x0", 0), -2)
    assert eval_float(e, {"x0": 2.0}) == 0.25


def test_parameter_and_coordinate_atoms():
    e = parse("a*sinh(x0)", coords=["x0"], params=["a"])
    assert e == Mul(Par("a"), Call("sinh", Var("x0", 0)))


def test_parentheses_override():
    e = parse("(1+x0)*2", coords=["x0"])
    assert eval_float(e, {"x0": 2.0}) == 6.0


def test_scientific_notation_literals():
    assert eval_float(parse("1.5e-2 + .5", []), {}) == pytest.approx(0.515)


# ----------------------------------------------------------------------
# parse errors carry positions
# ----------------------------------------------------------------------
def test_syntax_error_offset():
    with pytest.raises(DslSyntaxError) as err:
        parse("1+*2", [])
    assert err.value.pos == 2


def test_unknown_identifier_rejected_at_parse_time():
    with pytest.raises(DslNameError) as err:
        parse("x0 + yy", coords=["x0"])
    assert "yy" in str(err.value)
    assert err.value.pos == 5


def test_unknown_function_rejected():
    with pytest.raises(DslNameError):
        parse("tan(x0)", coords=["x0"])


def test_non_integer_exponent_rejected():
    with pytest.raises(DslSyntaxError):
        parse("x0^2.5", coords=["x0"])


def test_chained_exponent_needs_parens():
    with pytest.raises(DslSyntaxError):
        parse("x0^2^3", coords=["x0"])
    parse("(x0^2)^3", coords=["x0"])  # fine


def test_unexpected_character_reported():
    with pytest.raises(DslSyntaxError) as err:
        parse("x0 + $", coords=["x0"])
    assert err.value.pos == 5


def test_trailing_garbage_rejected():
    with pytest.raises(DslSyntaxError):
        parse("1 + 2 )", [])


def test_parse_returns_one_tree_per_text_and_names():
    first = parse("sin(x)*a", coords=["x"], params=["a"])
    assert parse("sin(x)*a", coords=("x",), params=("a",)) is first
    # the same text over other names is another tree
    assert parse("sin(x)*a", coords=["x", "a"]) is not first


def test_parse_errors_are_raised_on_every_call():
    for _ in range(3):
        with pytest.raises(DslSyntaxError):
            parse("1+*2", [])


# ----------------------------------------------------------------------
# pretty-printing round trip
# ----------------------------------------------------------------------
_COORDS = ("x", "y")
_PARAMS = ("a",)


def _leaf():
    return st.one_of(
        st.floats(0.0, 8.0, allow_nan=False).map(lambda v: Num(float(v))),
        st.sampled_from([Var("x", 0), Var("y", 1), Par("a")]),
    )


def _exprs(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(children, children).map(lambda ab: Add(*ab)),
        st.tuples(children, children).map(lambda ab: Sub(*ab)),
        st.tuples(children, children).map(lambda ab: Mul(*ab)),
        st.tuples(children, children).map(lambda ab: Div(*ab)),
        st.tuples(children, st.integers(-3, 3)).map(lambda bk: Pow(*bk)),
        st.tuples(st.sampled_from(exprs.FUNCTIONS), children).map(
            lambda fa: Call(*fa)),
    )


ast_strategy = st.recursive(_leaf(), _exprs, max_leaves=12)


@settings(max_examples=120, deadline=None)
@given(ast_strategy)
def test_pretty_parse_round_trip_is_fixed_point(e):
    text1 = pretty(e)
    reparsed = parse(text1, coords=_COORDS, params=_PARAMS)
    text2 = pretty(reparsed)
    assert text2 == text1
    assert parse(text2, coords=_COORDS, params=_PARAMS) == reparsed


@settings(max_examples=60, deadline=None)
@given(ast_strategy)
def test_round_trip_preserves_tree_after_one_normalization(e):
    normalized = parse(pretty(e), coords=_COORDS, params=_PARAMS)
    again = parse(pretty(normalized), coords=_COORDS, params=_PARAMS)
    assert again == normalized


# ----------------------------------------------------------------------
# evaluation backends
# ----------------------------------------------------------------------
def test_eval_jet_sin_squared_at_half_pi():
    e = parse("sin(x0)^2", coords=["x0"])
    j = eval_jet(e, [math.pi / 2], coords=["x0"], order=2)
    assert j.partial((0,)) == pytest.approx(1.0, abs=1e-14)
    assert j.partial((1,)) == pytest.approx(0.0, abs=1e-13)
    assert j.partial((2,)) == pytest.approx(-2.0, abs=1e-12)


def test_eval_jet_parameterized_sinh():
    e = parse("a*sinh(x0)", coords=["x0"], params=["a"])
    j = eval_jet(e, [0.0], coords=["x0"], params={"a": 2.0}, order=3)
    assert j.value == 0.0
    assert j.partial((1,)) == 2.0


def test_eval_jet_product_mixed_partials():
    e = parse("exp(x0)*cos(x1)", coords=["x0", "x1"])
    j = eval_jet(e, [0.0, 0.0], coords=["x0", "x1"], order=2)
    assert j.value == 1.0
    assert j.partial((1, 0)) == pytest.approx(1.0, abs=1e-14)
    assert j.partial((0, 1)) == pytest.approx(0.0, abs=1e-14)
    assert j.partial((1, 1)) == pytest.approx(0.0, abs=1e-14)


def test_constant_expression_has_zero_derivatives():
    e = parse("2.5 + sin(1)", [])
    j = eval_jet(e, [0.3, 0.4], coords=["u", "v"], order=3)
    assert np.count_nonzero(j.coeffs) == 1


def test_eval_matches_plain_float_at_order_zero():
    e = parse("sqrt(2 + cos(x)) * exp(y/3) - log(1 + x^2)",
              coords=["x", "y"])
    env = {"x": 0.37, "y": -0.82}
    j = eval_jet(e, [env["x"], env["y"]], coords=["x", "y"], order=0)
    assert j.value == pytest.approx(eval_float(e, env), abs=1e-15)


def test_eval_numpy_vectorizes():
    e = parse("sin(x)*y + a", coords=["x", "y"], params=["a"])
    xs = np.linspace(0, 1, 7)
    ys = np.linspace(-1, 1, 7)
    vec = eval_numpy(e, {"x": xs, "y": ys, "a": 2.0})
    pointwise = [eval_float(e, {"x": float(x), "y": float(y), "a": 2.0})
                 for x, y in zip(xs, ys)]
    assert np.allclose(vec, pointwise, atol=1e-15)


def test_unbound_parameter_raises():
    e = parse("a + x", coords=["x"], params=["a"])
    with pytest.raises(DslNameError):
        eval_float(e, {"x": 1.0})


@pytest.mark.parametrize("text", [
    "exp(sin(x)*y) + sqrt(2 + cos(x - y))",
    "log(2 + x^2) / (1 + y^2) - sinh(x*y/4)",
    "cosh(x/2 - y/3)*sin(2*x) + (x - y)^3/6",
])
def test_eval_jet_partials_match_fd_oracle(text):
    """Random-ish depth-4 expressions: all |alpha| <= 4 partials vs mpmath."""
    coords = ["x", "y"]
    point = [0.31, -0.42]
    e = parse(text, coords=coords)
    j = eval_jet(e, point, coords=coords, order=4)
    alphas = list(j.tab.mons)
    want = fdcheck.expr_partials(e, coords, point, alphas)
    for alpha, w in zip(alphas, want):
        assert abs(j.partial(alpha) - w) <= 1e-6 * max(1.0, abs(w)), alpha


def test_nested_eval_jet_equals_per_entry_scalar_jets_bitwise():
    coords, params = ["x", "y"], {"a": 1.5}
    point = [0.31, -0.42]
    rows = [["a*sin(x)^2 + y", parse("exp(x*y)", coords, ["a"])],
            [parse("exp(x*y)", coords, ["a"]), "cosh(y)/(2 + x^2) - 0"]]
    t = eval_jet(rows, point, coords, params, order=4)
    assert t.shape == (2, 2) and t.order == 4
    for i in range(2):
        for j in range(2):
            e = rows[i][j]
            e = parse(e, coords, ["a"]) if isinstance(e, str) else e
            one = eval_jet(e, point, coords, params, order=4)
            assert np.array_equal(t[i, j].coeffs, one.coeffs)
    # a text leaf on its own is a scalar jet
    assert eval_jet("x*y", point, coords, order=2).shape == ()


# sha256 (first 16 hex digits) of the order-4 metric jets of each catalog
# chart at its first two `charts.sample_points`, frozen from the per-entry
# evaluator that preceded subtree sharing and point sets (on x86-64 with
# glibc: another libm may round `math.sin` and friends differently)
METRIC_JET_DIGESTS = {
    "berger_sphere": "d915451648f2a3e3",
    "circle_x_berger": "40ceef52ba30c9c0",
    "conformal_sphere_bump": "271cc9a7124131e5",
    "flat_torus_2": "d83de3389c23124f",
    "flat_torus_3": "88d45f20e4552dff",
    "hyperbolic_2": "20d851a48ce5150f",
    "line_x_berger": "40ceef52ba30c9c0",
    "r2_x_h2": "ffbd92769ff722da",
    "r2_x_s2": "533f041f7cb3c82c",
    "round_profile": "669ea7e5e0500c87",
    "round_sphere_2": "669ea7e5e0500c87",
    "round_sphere_3": "63419e73946e1470",
    "round_sphere_4": "b010c1da9b7a6936",
    "s1_x_s3": "f212b16aeb503213",
    "s2_x_s2": "6cb539fdce593224",
    "s2_x_t2": "8898da7084761249",
}


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(METRIC_JET_DIGESTS))
def test_catalog_metric_jets_match_frozen_digests(name):
    chart = charts.get_example(name).chart
    pts = charts.sample_points(chart, 2)
    one_by_one = [chart.metric_jets(p, order=4).coeffs for p in pts]
    batch = chart.metric_jets(pts, order=4).coeffs
    assert batch.shape == one_by_one[0].shape[:-1] + (2, batch.shape[-1])
    assert _digest(one_by_one) == METRIC_JET_DIGESTS[name]
    assert _digest(batch[..., k, :] for k in range(2)) \
        == METRIC_JET_DIGESTS[name]


def test_eval_jet_shares_equal_subtrees(monkeypatch):
    # the Berger metric spells out 15 sin/cos calls of 4 distinct ones
    chart = charts.get_example("berger_sphere").chart
    text = " ".join(e for row in chart.metric_strs for e in row)
    assert text.count("sin(") + text.count("cos(") == 15
    calls = []
    for name, fn in list(jets.ELEMENTARY.items()):
        monkeypatch.setitem(jets.ELEMENTARY, name,
                            lambda j, fn=fn, name=name:
                            calls.append(name) or fn(j))
    chart.metric_jets(chart.center())
    assert sorted(calls) == ["cos", "cos", "sin", "sin"]


def test_eval_jet_over_points_adds_a_point_axis():
    coords = ["x", "y"]
    pts = np.array([[0.31, -0.42], [0.1, 0.2], [-0.5, 0.7]])
    rows = [["sin(x)*y", "1"], ["1", "sqrt(2 + x*y)"]]
    t = eval_jet(rows, pts, coords, order=3)
    assert t.shape == (2, 2, 3)
    for k, p in enumerate(pts):
        assert np.array_equal(t.coeffs[..., k, :],
                              eval_jet(rows, p, coords, order=3).coeffs)
    with pytest.raises(DslError, match="shape"):
        eval_jet("x", np.zeros((2, 3)), coords)


def test_eval_jet_domain_error_at_any_point():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]])
    for text in ("sqrt(x)", "log(x)", "1/(x - 2)"):
        with pytest.raises(JetDomainError, match=r"entry \((1|2),\)"):
            eval_jet(text, pts, ["x", "y"], order=2)


def test_substitute_names_for_product_charts():
    e = parse("sin(th)^2 * r", coords=["th"], params=["r"])
    renamed = exprs.substitute_names(e, {"th": "th_2"})
    assert "th_2" in exprs.free_names(renamed)
    assert eval_float(renamed, {"th_2": 0.7, "r": 2.0}) == pytest.approx(
        eval_float(e, {"th": 0.7, "r": 2.0}))
