"""The one jet-product kernel: scalar convolution, tensor contractions."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bachlab import _kernels
from bachlab._jettables import tables
from bachlab.jets import Jet, contract


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
    out = np.zeros(tab.size)
    _kernels.mul_into(a, b, out, tab.pair_i, tab.pair_j, tab.pair_k,
                      tab.diag_i, tab.diag_k, tab.all_k)
    assert np.array_equal(out, want)
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
            want = (Jet(3, 4, a[i, j]) * Jet(3, 4, b[j])).coeffs
            assert np.array_equal(prod[i, j], want)


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
