"""The one jet-product kernel: scalar convolution, tensor contractions."""

from __future__ import annotations

import ast
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bachlab import _kernels
from bachlab._jettables import tables
from bachlab.jets import Jet, contract


def _reference(a, b, tab):
    """The truncated product of two scalar jets by the reference kernel."""
    out = np.zeros(tab.size)
    _kernels.mul_into(a, b, out, tab.pair_i, tab.pair_j, tab.pair_k,
                      tab.diag_i, tab.diag_k, tab.all_k)
    return out


def test_kernel_is_a_correct_convolution():
    tab = tables(2, 2)
    # (1 + x)(1 + y) = 1 + x + y + xy
    ix = tab.index[(1, 0)]
    iy = tab.index[(0, 1)]
    a = np.zeros(tab.size)
    b = np.zeros(tab.size)
    a[0] = a[ix] = 1.0
    b[0] = b[iy] = 1.0
    want = np.zeros(tab.size)
    want[0] = want[ix] = want[iy] = want[tab.index[(1, 1)]] = 1.0
    assert np.array_equal(_reference(a, b, tab), want)
    # the tensor entry point computes the same product on every entry
    both = _kernels.product(np.stack([a, b]), np.stack([b, a]), tab)
    assert np.array_equal(both, np.stack([want, want]))


def test_elementwise_tensor_product_matches_scalar_products_bitwise():
    tab = tables(3, 4)
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 3, tab.size))
    b = rng.standard_normal((3, tab.size))  # broadcasts over the first axis
    prod = (Jet(3, 4, a) * Jet(3, 4, b)).coeffs
    for i in range(2):
        for j in range(3):
            assert np.array_equal(prod[i, j], _reference(a[i, j], b[j], tab))


@st.composite
def scalar_jet_pairs(draw):
    dim = draw(st.integers(1, 4))
    order = draw(st.integers(0, 5))
    size = tables(dim, order).size
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a, b = (rng.standard_normal(size)
            * 10.0 ** draw(st.floats(-8.0, 8.0)) for _ in range(2))
    return dim, order, a, b


@settings(max_examples=200, deadline=None)
@given(scalar_jet_pairs())
def test_scalar_product_equals_the_reference_kernel_bitwise(pair):
    dim, order, a, b = pair
    got = (Jet(dim, order, a) * Jet(dim, order, b)).coeffs
    want = _reference(a, b, tables(dim, order))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_no_module_but_the_kernel_calls_the_reference_product():
    # every jet product in the package runs through `_kernels.product`
    for source in resources.files("bachlab").iterdir():
        if not source.name.endswith(".py") or source.name == "_kernels.py":
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"))
        calls = [ast.unparse(node) for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and "mul_into" in (
                     getattr(node.func, "id", None),
                     getattr(node.func, "attr", None))]
        assert not calls, f"{source.name}: {calls}"


@st.composite
def tensor_jet_pairs(draw):
    dim, order = draw(st.sampled_from([(2, 3), (3, 4), (4, 4)]))
    size = tables(dim, order).size
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    a = Jet(dim, order, rng.uniform(-2.0, 2.0, (dim, dim, size)))
    b = Jet(dim, order, rng.uniform(-2.0, 2.0, (dim, dim, size)))
    return a, b


@settings(max_examples=30, deadline=None)
@given(tensor_jet_pairs())
def test_contraction_equals_sum_of_scalar_products(pair):
    a, b = pair
    n = a.dim
    got = contract("ik,kj->ij", a, b).coeffs
    for i in range(n):
        for j in range(n):
            acc = a[i, 0] * b[0, j]
            for k in range(1, n):
                acc = acc + a[i, k] * b[k, j]
            scale = max(1.0, np.abs(acc.coeffs).max())
            assert np.abs(got[i, j] - acc.coeffs).max() <= 1e-14 * scale


@settings(max_examples=30, deadline=None)
@given(tensor_jet_pairs())
def test_elementwise_tensor_product_is_commutative_bitwise(pair):
    a, b = pair
    assert np.array_equal((a * b).coeffs, (b * a).coeffs)
    # a scalar jet broadcast against a tensor, from either side
    s = a[0, 1]
    assert np.array_equal((s * b).coeffs, (b * s).coeffs)


def test_long_products_scatter_in_chunks_with_a_bounded_cache(monkeypatch):
    tab = tables(2, 4)
    rng = np.random.default_rng(3)
    a, b = (rng.standard_normal((2, 2, 300, tab.size)) for _ in range(2))
    whole = _kernels.product(a, b, tab, "ik,kj->ij")
    monkeypatch.setattr(_kernels, "_SCATTER_ROWS", 7)
    monkeypatch.setattr(_kernels, "_SCATTER", {})
    chunked = _kernels.product(a, b, tab, "ik,kj->ij")
    assert np.array_equal(chunked, whole)
    assert [len(idx) for idx in _kernels._SCATTER.values()] == [7 * len(tab.all_k)]


@pytest.mark.parametrize("spec", ["ij,ij->", "ab,abij->ij", "ik,kj->ij"])
def test_one_column_contractions_round_each_point_alike(spec):
    # at order 0 a contraction sums plain values; a point axis must not
    # change the order of that sum
    tab = tables(4, 0)
    rng = np.random.default_rng(5)
    ins = spec.split("->")[0].split(",")
    a, b = (rng.standard_normal((4,) * len(s) + (6, 1)) for s in ins)
    both = _kernels.product(a, b, tab, spec)
    for k in range(6):
        one = _kernels.product(a[..., k, :], b[..., k, :], tab, spec)
        assert np.array_equal(both[..., k, :], one), k
