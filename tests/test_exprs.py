"""Expression DSL: grammar, precedence, errors, renaming, evaluation."""

from __future__ import annotations

import hashlib
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bachlab import charts, exprs, fdcheck, jets
from bachlab.exprs import (Call, DslError, DslNameError, DslSyntaxError, Mul,
                           Neg, Par, Pow, Var, eval_jet, eval_mp,
                           eval_numpy, parse, rename_names)
from bachlab.jets import JetDomainError


# ----------------------------------------------------------------------
# parsing and precedence
# ----------------------------------------------------------------------
def test_parse_sin_squared():
    e = parse("sin(x0)^2", coords=["x0"])
    assert e == Pow(Call("sin", Var("x0")), 2)


def test_parse_rational_value():
    e = parse("1/(1+x0^2)", coords=["x0"])
    assert eval_numpy(e, {"x0": 0.0}) == 1.0


def test_unary_minus_binds_looser_than_power():
    e = parse("-x0^2", coords=["x0"])
    assert e == Neg(Pow(Var("x0"), 2))
    assert eval_numpy(e, {"x0": 2.0}) == -4.0


def test_left_associative_subtraction_and_division():
    assert eval_numpy(parse("2-3-4", []), {}) == -5.0
    assert eval_numpy(parse("2/4/2", []), {}) == 0.25


def test_negative_integer_exponent():
    e = parse("x0^-2", coords=["x0"])
    assert e == Pow(Var("x0"), -2)
    assert eval_numpy(e, {"x0": 2.0}) == 0.25


def test_parameter_and_coordinate_atoms():
    e = parse("a*sinh(x0)", coords=["x0"], params=["a"])
    assert e == Mul(Par("a"), Call("sinh", Var("x0")))


def test_parentheses_override():
    e = parse("(1+x0)*2", coords=["x0"])
    assert eval_numpy(e, {"x0": 2.0}) == 6.0


def test_scientific_notation_literals():
    assert eval_numpy(parse("1.5e-2 + .5", []), {}) == pytest.approx(0.515)


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


def test_a_literal_that_overflows_a_float_is_rejected():
    with pytest.raises(DslSyntaxError, match="'1e999' overflows") as err:
        parse("2*x + 1e999*x", ["x"])
    assert err.value.pos == 6
    assert parse("1.7e308", []) == exprs.Num(1.7e308)


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
# renaming names in a text
# ----------------------------------------------------------------------
# a coordinate named like a function, and a swap: every name is renamed
# at once, from the text as written
_COORDS = ("x", "exp")
_PARAMS = ("a",)
_RENAME = {"x": "exp", "exp": "x", "a": "a_2"}
_SPACE = st.sampled_from(["", " ", "  ", "\t"])
_NUMBER = st.sampled_from(["2", "2.0", "2.", "0.5", ".5", "5e-1", "1.5E+1",
                           "3"])


def _pieces(pieces):
    """A text as ``(kind, piece)`` pairs; only "name" pieces are names."""
    return "".join(p for _, p in pieces)


def _renamed(pieces):
    return "".join(_RENAME[p] if kind == "name" else p
                   for kind, p in pieces)


def _grouped(child):
    return [("op", "(")] + child + [("op", ")")]


def _leaf_pieces():
    return st.one_of(_NUMBER.map(lambda n: [("num", n)]),
                     st.sampled_from(_COORDS + _PARAMS).map(
                         lambda n: [("name", n)]))


def _node_pieces(children):
    binary = st.tuples(children, _SPACE, st.sampled_from("+-*/"), _SPACE,
                       children).map(
        lambda t: _grouped(t[0]) + [("sp", t[1]), ("op", t[2]),
                                    ("sp", t[3])] + _grouped(t[4]))
    return st.one_of(
        binary,
        children.map(lambda c: [("op", "-")] + _grouped(c)),
        st.tuples(children, st.integers(-3, 3)).map(
            lambda t: _grouped(t[0]) + [("op", "^"), ("num", str(t[1]))]),
        st.tuples(st.sampled_from(exprs.FUNCTIONS), _SPACE, children).map(
            lambda t: [("call", t[0]), ("sp", t[1])] + _grouped(t[2])),
    )


text_pieces = st.recursive(_leaf_pieces(), _node_pieces, max_leaves=12)


def _bits(text, coords, params, env):
    """The value of a text as bits, or the type of the error it raises."""
    e = parse(text, coords, params)
    try:
        with np.errstate(all="ignore"):
            return np.float64(eval_numpy(e, env)).tobytes()
    except (ArithmeticError, ValueError) as err:
        return type(err)


@settings(max_examples=150, deadline=None)
@given(text_pieces, st.tuples(*[st.floats(-3.0, 3.0)] * 3))
def test_renamed_text_has_the_same_value_bit_for_bit(pieces, values):
    text = _pieces(pieces)
    renamed = rename_names(text, _RENAME)
    env = dict(zip(_COORDS + _PARAMS, values))
    renamed_env = {_RENAME[name]: v for name, v in env.items()}
    new_coords = tuple(_RENAME[c] for c in _COORDS)
    new_params = tuple(_RENAME[p] for p in _PARAMS)
    assert (_bits(renamed, new_coords, new_params, renamed_env)
            == _bits(text, _COORDS, _PARAMS, env))


@settings(max_examples=150, deadline=None)
@given(text_pieces)
def test_renaming_changes_names_only(pieces):
    # calls keep their function, spacing and number spelling survive
    assert rename_names(_pieces(pieces), _RENAME) == _renamed(pieces)


def test_a_coordinate_named_like_a_function_keeps_the_call():
    assert rename_names("exp(exp)", {"exp": "exp_2"}) == "exp(exp_2)"
    assert rename_names("exp (exp) ", {"exp": "t"}) == "exp (t) "
    e = parse(rename_names("exp(exp)", {"exp": "t"}), coords=["t"])
    assert e == Call("exp", Var("t"))


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
    assert j.value == pytest.approx(eval_numpy(e, env), abs=1e-15)


def test_eval_numpy_vectorizes():
    e = parse("sin(x)*y + a", coords=["x", "y"], params=["a"])
    xs = np.linspace(0, 1, 7)
    ys = np.linspace(-1, 1, 7)
    vec = eval_numpy(e, {"x": xs, "y": ys, "a": 2.0})
    pointwise = [eval_numpy(e, {"x": float(x), "y": float(y), "a": 2.0})
                 for x, y in zip(xs, ys)]
    assert np.allclose(vec, pointwise, atol=1e-15)


def test_unbound_parameter_raises():
    e = parse("a + x", coords=["x"], params=["a"])
    with pytest.raises(DslNameError):
        eval_numpy(e, {"x": 1.0})
    for arg in (e, [parse("x^2", ["x"]), e]):
        with pytest.raises(DslNameError, match="'a'"):
            eval_mp(arg, {"x": mp.mpf(1)})


def _walk(e, env, funcs, const):
    """The reference evaluator: a recursive walk of the tree, which
    evaluates a shared subtree again wherever it occurs."""
    t = type(e)
    if t is exprs.Num:
        return const(e.v)
    if t is Var or t is Par:
        return env[e.name]
    if t is Neg:
        return -_walk(e.a, env, funcs, const)
    if t is Pow:
        return _walk(e.a, env, funcs, const) ** e.k
    if t is Call:
        return funcs[e.fn](_walk(e.a, env, funcs, const))
    a, b = _walk(e.a, env, funcs, const), _walk(e.b, env, funcs, const)
    if t is exprs.Add:
        return a + b
    if t is exprs.Sub:
        return a - b
    if t is Mul:
        return a * b
    return a / b


def _cases():
    """Each catalog chart's metric entries with its coordinates and
    parameters at two sample points, and one expression holding every kind
    of node, with a lone constant, whose value is its rounding to the
    working precision.  Yields (entries, params, {coord: values})."""
    for name in charts.catalog_names():
        chart = charts.get_example(name)
        entries = [e for row in chart.metric for e in row]
        pts = charts.sample_points(chart, 2)
        yield entries, chart.params, dict(zip(chart.coords, pts.T))
    coords, params = ["x", "y"], ["a"]
    every = parse("-(a*x)^3 / (sin(x) + cos(0.7*y) + exp(x/2.9) + sinh(y) "
                  "+ cosh(x) + sqrt(2.2 + y) + log(0.3 + x*y)) - 1.1*x^-2",
                  coords, params)
    yield [every, parse("a*x^2", coords, params), parse("0.1", coords)], \
        {"a": 1.7}, {"x": np.array([0.31, 0.2]), "y": np.array([-0.42, 0.5])}


def _point_envs(params, columns, number):
    """One environment per point, each value converted by `number`."""
    count = len(next(iter(columns.values())))
    for k in range(count):
        yield {**{p: number(v) for p, v in params.items()},
               **{c: number(float(v[k])) for c, v in columns.items()}}


def test_eval_mp_equals_the_recursive_evaluation_bitwise():
    # the compiled program against the recursive tree walk, with constants
    # rounded to each precision, also below float's and on a switch back
    for dps in (15, 50, 5, 15):
        with mp.workdps(dps):
            for entries, params, columns in _cases():
                for env in _point_envs(params, columns, mp.mpf):
                    want = [_walk(e, env, exprs.MP_FUNCS, mp.mpf)._mpf_
                            for e in entries]
                    assert [v._mpf_ for v in eval_mp(entries, env)] == want
                    assert [eval_mp(e, env)._mpf_ for e in entries] == want


def _value_bits(value) -> tuple:
    value = np.asarray(value)
    return value.dtype, value.shape, value.tobytes()


def test_eval_numpy_equals_the_recursive_evaluation_bitwise():
    for entries, params, columns in _cases():
        # NumPy on the floats of one point at a time
        for env in _point_envs(params, columns, float):
            want = [_value_bits(_walk(e, env, exprs.NUMPY_FUNCS, float))
                    for e in entries]
            assert list(map(_value_bits, eval_numpy(entries, env))) == want
            assert [_value_bits(eval_numpy(e, env)) for e in entries] == want
        # NumPy over the point array at once
        env = {**params, **columns}
        want = [_value_bits(_walk(e, env, exprs.NUMPY_FUNCS, float))
                for e in entries]
        assert list(map(_value_bits, eval_numpy(entries, env))) == want
        assert [_value_bits(eval_numpy(e, env)) for e in entries] == want


def test_program_compiles_a_sequence_of_trees_once(monkeypatch):
    built = []
    init = exprs._Program.__init__
    monkeypatch.setattr(exprs._Program, "__init__",
                        lambda prog, trees: built.append(trees)
                        or init(prog, trees))
    e = parse("x*y + 0.125*sin(x*y) - 7", ["x", "y"])
    env = {"x": mp.mpf("0.3"), "y": mp.mpf("0.1")}
    first = eval_mp((e, e), env)
    assert eval_mp([e, e], env) == first and first[0] is first[1]
    # another backend runs the same program
    assert eval_numpy([e, e], {"x": 0.3, "y": 0.1}) == [float(first[0])] * 2
    assert built == [(e, e)]
    # a chart's metric is compiled on its first jets only
    chart = charts.get_example("berger_sphere")
    chart.metric_jets(chart.center())
    built.clear()
    chart.metric_jets(chart.center())
    chart.metric_jets(charts.sample_points(chart, 3))
    assert built == []


def test_a_replaced_table_entry_takes_effect_in_a_compiled_program(
        monkeypatch):
    e = parse("cos(x)*sin(x)", ["x"])
    runs = {
        "numpy": lambda: tuple(eval_numpy(e, {"x": np.array([0.5, 0.6])})),
        "mp": lambda: eval_mp(e, {"x": mp.mpf("0.5")})._mpf_,
        "jet": lambda: tuple(eval_jet(e, [0.5], ["x"], order=2).coeffs),
    }
    tables = {"numpy": exprs.NUMPY_FUNCS, "mp": exprs.MP_FUNCS,
              "jet": exprs.JET_FUNCS}
    for backend, run in runs.items():
        before = run()  # compiles the program, or reuses it
        calls = []
        sin = tables[backend]["sin"]
        monkeypatch.setitem(tables[backend], "sin",
                            lambda a, sin=sin: calls.append(a) or sin(a))
        assert run() == before and len(calls) == 1, backend
    # an overloaded operator is read on each run too
    calls = []
    mul = jets.Jet.__mul__
    monkeypatch.setattr(jets.Jet, "__mul__",
                        lambda a, b: calls.append(b) or mul(a, b))
    runs["jet"]()
    # the series of cos and sin multiply too; the program's product is last
    assert calls[-1].value == math.sin(0.5)


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
    with mp.workdps(fdcheck.DEFAULT_DPS):
        want = [float(fdcheck.partial_mp(
            lambda q: eval_mp(e, dict(zip(coords, q))), point, alpha))
            for alpha in alphas]
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
    chart = charts.get_example(name)
    pts = charts.sample_points(chart, 2)
    one_by_one = [chart.metric_jets(p, order=4).coeffs for p in pts]
    batch = chart.metric_jets(pts, order=4).coeffs
    assert batch.shape == one_by_one[0].shape[:-1] + (2, batch.shape[-1])
    assert _digest(one_by_one) == METRIC_JET_DIGESTS[name]
    assert _digest(batch[..., k, :] for k in range(2)) \
        == METRIC_JET_DIGESTS[name]


def test_eval_jet_shares_equal_subtrees(monkeypatch):
    # the Berger metric spells out 15 sin/cos calls of 4 distinct ones
    chart = charts.get_example("berger_sphere")
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
