"""The truncated-product kernel for jets and tensors of jets.

A jet holds its Taylor coefficients in the graded layout of `_jettables`;
a tensor of jets is one float64 array of shape ``(*tensor_shape, size)``.
Every product -- one scalar jet times another, an elementwise product of
tensors, or a contraction over tensor indices -- runs the same steps:

1. gather the operand coefficients of the table's slot pairs: strict pairs
   i < j contribute the symmetric term ``a_i b_j + a_j b_i`` (so products
   are exactly commutative in floating point) and diagonal slots
   contribute ``a_i b_i``;
2. multiply the gathered operands, elementwise with broadcasting or by an
   `np.einsum` over the contracted tensor indices, with the pair axis
   carried along as a batch axis;
3. scatter the terms to their destination slots by ``all_k`` with one
   `np.bincount`.  It accumulates in input order, strict pairs first and
   then diagonals, so a tensor entry is rounded exactly like the scalar
   product of its two operand entries.
"""

from __future__ import annotations

import numpy as np

from ._jettables import JetTables

BACKEND_NAME = "numpy"


def _terms(a, b, pi, pj, di, mul=np.multiply):
    """Pair and diagonal terms of a truncated product, before the scatter."""
    ta, tb = a.take, b.take
    return np.concatenate((mul(ta(pi, axis=-1), tb(pj, axis=-1))
                           + mul(ta(pj, axis=-1), tb(pi, axis=-1)),
                           mul(ta(di, axis=-1), tb(di, axis=-1))), axis=-1)


def mul_into(a, b, out, pi, pj, pk, di, dk, all_k):
    """Accumulate the truncated product of two scalar jets into out.

    out must be zero-initialized; the index arrays come from
    `_jettables.JetTables` (``pk`` and ``dk`` are carried in ``all_k``).
    """
    out += np.bincount(all_k, weights=_terms(a, b, pi, pj, di),
                       minlength=out.shape[0])


_SCATTER: dict[tuple[int, int, int], np.ndarray] = {}


def _scatter(terms: np.ndarray, tab: JetTables) -> np.ndarray:
    """Sum each row of terms into its destination slots by ``all_k``."""
    lead = terms.shape[:-1]
    rows = int(np.prod(lead))
    key = (rows, tab.dim, tab.order)
    idx = _SCATTER.get(key)
    if idx is None:
        idx = _SCATTER[key] = (np.arange(rows)[:, None] * tab.size
                               + tab.all_k).ravel()
    out = np.bincount(idx, weights=terms.reshape(-1),
                      minlength=rows * tab.size)
    return out.reshape(lead + (tab.size,))


def product(a: np.ndarray, b: np.ndarray, tab: JetTables,
            spec: str | None = None) -> np.ndarray:
    """Truncated product of two tensors of jets at one (dim, order).

    ``a`` and ``b`` end in an axis of ``tab.size`` coefficients.  ``spec``
    holds `np.einsum` subscripts over the tensor axes only, for example
    ``"lim,mjk->lijk"``; without it the tensors multiply elementwise with
    broadcasting.
    """
    mul = np.multiply
    if spec is not None:
        ins, out = spec.split("->")
        sub = ",".join(s + "..." for s in ins.split(",")) + "->" + out + "..."

        def mul(x, y):
            return np.einsum(sub, x, y)

    return _scatter(_terms(a, b, tab.pair_i, tab.pair_j, tab.diag_i, mul),
                    tab)
