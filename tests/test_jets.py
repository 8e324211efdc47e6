"""Jet arithmetic: layout, ring laws, composition, derivative bookkeeping.

Derived values are checked against two independent oracles: exact
dict-based polynomial expansion (for products) and nested mpmath central
differences (for elementary-function composition).
"""

from __future__ import annotations

import math
from itertools import product as iproduct

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bachlab import _jettables, fdcheck
from bachlab.jets import (Jet, JetDomainError, JetError, JetOrderError,
                          JetShapeError, variables)


# ----------------------------------------------------------------------
# exact polynomial oracle (independent of the jet kernels)
# ----------------------------------------------------------------------
def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + ca * cb
    return out


def poly_diff(p: dict, axis: int) -> dict:
    out: dict = {}
    for a, c in p.items():
        if a[axis] > 0:
            key = tuple(x - 1 if i == axis else x for i, x in enumerate(a))
            out[key] = out.get(key, 0) + c * a[axis]
    return out


def poly_eval(p: dict, point) -> float:
    return float(sum(c * math.prod(x ** e for x, e in zip(point, a))
                     for a, c in p.items()))


def poly_taylor_coeff(p: dict, point, alpha) -> float:
    d = p
    for axis, k in enumerate(alpha):
        for _ in range(k):
            d = poly_diff(d, axis)
    fact = math.prod(math.factorial(k) for k in alpha)
    return poly_eval(d, point) / fact


def poly_to_jet(p: dict, point, dim: int, order: int) -> Jet:
    xs = variables(point, order)
    acc = Jet.constant(0.0, dim, order)
    for a, c in p.items():
        term = Jet.constant(float(c), dim, order)
        for axis, k in enumerate(a):
            for _ in range(k):
                term = term * xs[axis]
        acc = acc + term
    return acc


# ----------------------------------------------------------------------
# constructors and layout
# ----------------------------------------------------------------------
def test_variable_jet_layout():
    x = Jet.variable(0, 2.0, dim=2, order=2)
    assert x.value == 2.0
    assert x.coeffs[x.tab.index[(1, 0)]] == 1.0
    assert all(x.coeffs[x.tab.index[a]] == 0.0
               for a in [(0, 1), (2, 0), (1, 1), (0, 2)])


def test_constant_jet_has_zero_derivatives():
    c = Jet.constant(5.0, dim=3, order=4)
    assert c.value == 5.0
    assert np.count_nonzero(c.coeffs) == 1


def test_partial_of_variable_jet():
    y = Jet.variable(1, -1.0, dim=2, order=4)
    assert y.partial((0, 1)) == 1.0
    assert y.partial((0, 0)) == -1.0


def test_partial_degree_beyond_order_raises():
    x = Jet.variable(0, 0.0, dim=2, order=2)
    with pytest.raises(JetOrderError):
        x.partial((3, 0))


def test_variable_axis_out_of_range():
    with pytest.raises(JetError):
        Jet.variable(2, 0.0, dim=2, order=2)


def test_tables_reach_order_five_and_stop_there():
    for dim in range(1, 5):
        tab = _jettables.tables(dim, 5)
        assert tab.size == math.comb(dim + 5, 5)
        assert tab.size_upto[4] == _jettables.tables(dim, 4).size
        with pytest.raises(ValueError, match="order"):
            _jettables.tables(dim, 6)


# ----------------------------------------------------------------------
# ring operations
# ----------------------------------------------------------------------
def test_mul_xy_mixed_partial():
    x, y = variables([2.0, 3.0], order=2)
    assert (x * y).partial((1, 1)) == 1.0


def test_reciprocal_geometric_series():
    x, = variables([0.0], order=3)
    inv = 1.0 / (1.0 + x)
    assert np.allclose(inv.coeffs, [1.0, -1.0, 1.0, -1.0], atol=1e-15)


def test_mul_matches_polynomial_expansion_oracle():
    rng = np.random.default_rng(42)
    dim, order = 3, 4
    mons2 = [a for a in iproduct(range(3), repeat=dim) if sum(a) <= 2]
    for _ in range(5):
        p = {a: int(rng.integers(-4, 5)) for a in mons2}
        q = {a: int(rng.integers(-4, 5)) for a in mons2}
        point = rng.uniform(-1.5, 1.5, size=dim)
        jp, jq = poly_to_jet(p, point, dim, order), poly_to_jet(q, point, dim, order)
        prod = jp * jq
        pq = poly_mul(p, q)
        for alpha, got in zip(prod.tab.mons, prod.coeffs):
            want = poly_taylor_coeff(pq, point, alpha)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_division_by_zero_constant_term():
    x, = variables([0.0], order=2)
    with pytest.raises(JetDomainError):
        1.0 / x


def test_shape_mismatch_is_an_error():
    a = Jet.constant(1.0, dim=2, order=2)
    b = Jet.constant(1.0, dim=2, order=3)
    with pytest.raises(JetShapeError):
        a + b
    with pytest.raises(JetShapeError):
        a * b.truncated(2) * b  # still one mismatched pairing


def test_truncation_is_prefix_and_explicit():
    x, y = variables([0.5, -0.3], order=4)
    j = (x * y + x).sin()
    t = j.truncated(2)
    assert t.order == 2
    assert np.array_equal(t.coeffs, j.coeffs[: t.tab.size])
    with pytest.raises(JetOrderError):
        j.truncated(5)


def test_integer_powers():
    x, = variables([0.0], order=4)
    cube = (1.0 + x) ** 3
    assert np.allclose(cube.coeffs, [1, 3, 3, 1, 0], atol=1e-15)
    inv = (1.0 + x) ** -1
    assert np.allclose(inv.coeffs, [1, -1, 1, -1, 1], atol=1e-15)
    assert (x ** 0).value == 1.0
    with pytest.raises(JetError):
        x ** 1.5  # type: ignore[operator]


def test_powi_spends_no_product_on_the_constant_one():
    x, y = variables([0.37, -1.21], order=4)
    z = (x * y).sin() + x
    assert np.array_equal(z.powi(2).coeffs, (z * z).coeffs)
    assert np.array_equal(z.powi(1).coeffs, z.coeffs)
    assert np.array_equal(z.powi(3).coeffs, (z * (z * z)).coeffs)


def test_power_zero_keeps_the_tensor_shape():
    x, y = variables([0.37, -1.21], order=3)
    scalar = (x * y).sin()
    tensor = Jet(2, 3, np.random.default_rng(2).standard_normal(
        (2, 3, scalar.tab.size)))
    points = Jet.variable(0, np.array([1.0, 2.0, -1.0]), 2, 3)
    for t in (scalar, tensor, points):
        one = t ** 0
        assert one.shape == t.shape
        assert np.array_equal(one.coeffs[..., 0], np.ones(t.shape))
        assert not one.coeffs[..., 1:].any()


# ----------------------------------------------------------------------
# elementary-function composition
# ----------------------------------------------------------------------
def test_sin_taylor_coefficients():
    x, = variables([0.0], order=3)
    assert np.allclose(x.sin().coeffs, [0, 1, 0, -1 / 6], atol=1e-15)


def test_exp_fills_inverse_factorials():
    x, = variables([0.0], order=4)
    assert np.allclose(x.exp().coeffs,
                       [1 / math.factorial(k) for k in range(5)], atol=1e-15)


def test_sin_squared_at_half_pi():
    x, = variables([math.pi / 2], order=2)
    f = x.sin() ** 2
    got = [f.partial((0,)), f.partial((1,)), f.partial((2,))]
    assert np.allclose(got, [1.0, 0.0, -2.0], atol=1e-12)


def test_domain_errors():
    x, = variables([-1.0], order=2)
    with pytest.raises(JetDomainError):
        x.sqrt()
    with pytest.raises(JetDomainError):
        x.log()


@pytest.mark.parametrize("fn", ["sin", "cos", "exp", "sinh", "cosh", "sqrt",
                                "log", "reciprocal"])
def test_elementary_functions_act_entrywise_bitwise(fn):
    rng = np.random.default_rng(7)
    coeffs = rng.uniform(-1.0, 1.0, (2, 3, 15))
    coeffs[..., 0] = rng.uniform(0.5, 2.0, (2, 3))
    t = getattr(Jet(2, 4, coeffs), fn)()
    assert t.shape == (2, 3)
    for i, j in iproduct(range(2), range(3)):
        one = getattr(Jet(2, 4, coeffs[i, j]), fn)()
        assert np.array_equal(t.coeffs[i, j], one.coeffs), (i, j)


def test_domain_errors_at_any_entry_name_it():
    x = Jet.variable(0, np.array([1.0, 2.0, -1.0]), 1, 2)
    for fn in ("sqrt", "log"):
        with pytest.raises(JetDomainError, match=r"got -1\.0 at entry \(2,\)"):
            getattr(x, fn)()
    with pytest.raises(JetDomainError, match=r"entry \(1,\)"):
        1.0 / (x - 2.0)
    # a NaN constant term is not a domain error: it propagates to its entry
    nan = Jet.variable(0, np.array([1.0, math.nan]), 1, 2).sqrt()
    assert np.isnan(nan.value[1]) and nan.value[0] == 1.0


def test_compose_sin_of_polynomial_vs_fd_oracle():
    """sin(x^2 + y) at (0.3, 0.1): every partial to |alpha| <= 4."""
    x, y = variables([0.3, 0.1], order=4)
    j = (x * x + y).sin()

    def f(q):
        return mp.sin(q[0] ** 2 + q[1])

    with mp.workdps(fdcheck.DEFAULT_DPS):
        for alpha in j.tab.mons:
            want = float(fdcheck.partial_mp(f, (0.3, 0.1), alpha))
            got = j.partial(alpha)
            assert abs(got - want) <= 1e-7 * max(1.0, abs(want)), alpha


@pytest.mark.parametrize("name", ["sin", "cos", "exp", "sinh", "cosh",
                                  "sqrt", "log"])
def test_every_elementary_function_vs_fd_oracle(name):
    """Partials of fn(0.8 + 0.3x + 0.2y^2 + 0.1xy) match mpmath FD."""
    point = (0.4, -0.2)
    x, y = variables(point, order=4)
    u = 0.8 + 0.3 * x + 0.2 * y * y + 0.1 * x * y
    j = getattr(u, name)()

    fn = getattr(mp, name)

    def f(q):
        return fn(mp.mpf("0.8") + mp.mpf("0.3") * q[0]
                  + mp.mpf("0.2") * q[1] ** 2 + mp.mpf("0.1") * q[0] * q[1])

    with mp.workdps(fdcheck.DEFAULT_DPS):
        for alpha in j.tab.mons:
            want = float(fdcheck.partial_mp(f, point, alpha))
            got = j.partial(alpha)
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), (name, alpha)


def test_chain_rule_against_direct_polynomial_composition():
    """exp(g) for polynomial g equals the jet of exp(g) assembled directly."""
    x, y = variables([0.2, -0.4], order=4)
    g = 1.0 + 0.5 * x - 0.25 * y + 0.125 * x * y
    composed = g.exp()
    # direct: multiply scalar exp(g0) by the jet exp(g - g0) via series
    g0 = g.value
    shifted = g - g0
    direct = Jet.constant(0.0, 2, 4)
    term = Jet.constant(1.0, 2, 4)
    for k in range(5):
        if k > 0:
            term = term * shifted * (1.0 / k)
        direct = direct + term
    direct = direct * math.exp(g0)
    assert np.allclose(composed.coeffs, direct.coeffs, atol=1e-14)


# ----------------------------------------------------------------------
# derivative operator
# ----------------------------------------------------------------------
def test_derivative_lowers_order_and_matches_series():
    x, = variables([0.0], order=3)
    d = (2.0 * x.sinh()).derivative(0)
    assert d.order == 2
    assert d.value == 2.0  # 2*cosh(0)


def test_derivative_of_order_zero_raises():
    with pytest.raises(JetOrderError):
        Jet.constant(1.0, 2, 0).derivative(0)


def test_derivative_product_rule():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = Jet(3, 3, rng.standard_normal(20))
        b = Jet(3, 3, rng.standard_normal(20))
        for axis in range(3):
            lhs = (a * b).derivative(axis)
            rhs = (a.derivative(axis) * b.truncated(2)
                   + a.truncated(2) * b.derivative(axis))
            assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_mixed_partials_commute():
    x, y = variables([0.3, 0.7], order=4)
    f = (x * y).exp() + (x + 2.0 * y).sin()
    dxy = f.derivative(0).derivative(1)
    dyx = f.derivative(1).derivative(0)
    assert np.allclose(dxy.coeffs, dyx.coeffs, atol=1e-13)


# ----------------------------------------------------------------------
# ring laws (hypothesis)
# ----------------------------------------------------------------------
def _int_jet(draw, dim, order, size):
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))
    return Jet(dim, order, np.array(coeffs, dtype=float))


@st.composite
def int_jet_triples(draw):
    dim, order, size = 2, 4, 15
    return tuple(_int_jet(draw, dim, order, size) for _ in range(3))


@settings(max_examples=60, deadline=None)
@given(int_jet_triples())
def test_ring_laws_exact_on_integer_jets(jets3):
    a, b, c = jets3
    assert np.array_equal((a + b).coeffs, (b + a).coeffs)
    assert np.array_equal(((a + b) + c).coeffs, (a + (b + c)).coeffs)
    assert np.array_equal(((a * b) * c).coeffs, (a * (b * c)).coeffs)
    assert np.array_equal((a * (b + c)).coeffs, (a * b + a * c).coeffs)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=40,
                max_size=40))
def test_mul_commutative_bitwise_on_floats(coeffs):
    a = Jet(3, 3, np.array(coeffs[:20]))
    b = Jet(3, 3, np.array(coeffs[20:]))
    assert np.array_equal((a * b).coeffs, (b * a).coeffs)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 3.0), st.lists(st.floats(-1, 1, allow_nan=False),
                                     min_size=14, max_size=14))
def test_reciprocal_is_multiplicative_inverse(c0, rest):
    j = Jet(2, 4, np.array([c0] + rest))
    one = j * j.reciprocal()
    expect = np.zeros(15)
    expect[0] = 1.0
    assert np.allclose(one.coeffs, expect, atol=1e-12)
