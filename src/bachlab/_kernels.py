"""The truncated-product kernel for jets and tensors of jets.

A jet holds its Taylor coefficients in the graded layout of `_jettables`;
a tensor of jets is one float64 array of shape ``(*tensor_shape, size)``.
Every product -- one scalar jet times another, an elementwise product of
tensors, or a contraction over tensor indices -- is one call of `product`,
the one entry point, which runs these steps:

0. an elementwise product with a constant operand (only its 0th
   coefficient non-zero) is the other operand scaled by that coefficient,
   plus 0.0.  Every other term of a slot has a zero factor, and the
   scatter sums the terms from +0.0, so for finite operands the scaling
   has the scatter's bits once the + 0.0 turns its -0.0 into +0.0 (a NaN
   or an inf stays non-finite, though not always in the same slots).
   This covers ``x / K`` (through the reciprocal of a constant) and the
   first Horner step of every elementary function; other products go on
   to step 1;
1. gather the operand coefficients of the table's slot pairs: strict pairs
   i < j contribute the symmetric term ``a_i b_j + a_j b_i`` (so products
   are exactly commutative in floating point) and diagonal slots
   contribute ``a_i b_i``;
2. multiply the gathered operands, elementwise with broadcasting or by an
   `np.einsum` over the contracted tensor indices, with the pair axis
   (and a point axis before it, if any) carried along as batch axes;
3. scatter the terms to their destination slots by ``all_k`` with
   `np.bincount`, in chunks of rows for a point set.  It accumulates in
   input order, strict pairs first and then diagonals, so a tensor entry
   is rounded exactly like the scalar product of its two operand entries.

Every contracted sum runs in one order whatever the batch axes, so the
jets of a point set are bitwise those of its points taken one at a time.
`mul_into` is the reference scalar product (and the name perfbench wraps).
"""

from __future__ import annotations

import math

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
    """Reference for `product`: the truncated product of two scalar jets,
    added to a zero-initialized out (index arrays from `JetTables`;
    ``pk`` and ``dk`` are carried in ``all_k``).  It gives the same bits.
    """
    out += np.bincount(all_k, weights=_terms(a, b, pi, pj, di),
                       minlength=out.shape[0])


# Destination indices of the scatter, one array per (dim, order): row r of
# the terms goes to slots r * size + all_k, and fewer rows use a prefix.
# Products of more rows (a point set) are scattered in chunks of
# _SCATTER_ROWS, the most a single point needs (a 4-index tensor in four
# dimensions), so the cache does not grow with the point set.
_SCATTER_ROWS = 256
_SCATTER: dict[tuple[int, int], np.ndarray] = {}


def _scatter_index(tab: JetTables, rows: int) -> np.ndarray:
    width = len(tab.all_k)
    idx = _SCATTER.get((tab.dim, tab.order))
    if idx is None or len(idx) < rows * width:
        idx = _SCATTER[(tab.dim, tab.order)] = (
            np.arange(rows)[:, None] * tab.size + tab.all_k).ravel()
    return idx[:rows * width]


def _scatter(terms: np.ndarray, tab: JetTables) -> np.ndarray:
    """Sum each row of terms into its destination slots by ``all_k``."""
    lead = terms.shape[:-1]
    rows = math.prod(lead)
    flat = terms.reshape(rows, -1)
    if rows > _SCATTER_ROWS:
        out = np.concatenate([_scatter(flat[r:r + _SCATTER_ROWS], tab)
                              for r in range(0, rows, _SCATTER_ROWS)])
    else:
        out = np.bincount(_scatter_index(tab, rows), weights=flat.ravel(),
                          minlength=rows * tab.size)
    return out.reshape(lead + (tab.size,))


def _lone_column(subs: list[str], out: str, x: np.ndarray, y: np.ndarray
                 ) -> np.ndarray:
    """The einsum of one-column operands with point axes, moved in front.

    For one column `np.einsum` sums each contracted entry of a single
    point in its contiguous-reduction loop, whose order is not the plain
    one it uses when a wider trailing axis -- the point axis -- runs
    innermost.  Moving the point axes (the axes between the tensor axes
    and the column) in front gives every point the contiguous reduction of
    a single point, so a point set is rounded like its points one by one.
    """
    ops = []
    for s, z in zip(subs, (x, y)):
        k = len(s)
        ops.append(np.ascontiguousarray(z[..., 0].transpose(
            tuple(range(k, z.ndim - 1)) + tuple(range(k)))))
    r = np.einsum(f"...{subs[0]},...{subs[1]}->...{out}", *ops)
    k = len(out)
    lead = r.ndim - k
    return r.transpose(tuple(range(lead, r.ndim)) + tuple(range(lead))
                       )[..., None]


def product(a: np.ndarray, b: np.ndarray, tab: JetTables,
            spec: str | None = None) -> np.ndarray:
    """Truncated product of two tensors of jets at one (dim, order).

    ``a`` and ``b`` end in an axis of ``tab.size`` coefficients.  ``spec``
    holds `np.einsum` subscripts over the tensor axes only, for example
    ``"lim,mjk->lijk"``; without it the tensors multiply elementwise with
    broadcasting.
    """
    mul = np.multiply
    if spec is None:
        # step 0: a constant operand scales the other
        if not b[..., 1:].any():
            return a * b[..., :1] + 0.0
        if not a[..., 1:].any():
            return a[..., :1] * b + 0.0
    else:
        ins, out = spec.split("->")
        subs = ins.split(",")
        sub = ",".join(s + "..." for s in subs) + "->" + out + "..."

        def mul(x, y):
            if x.shape[-1] == 1 and (x.ndim > len(subs[0]) + 1
                                     or y.ndim > len(subs[1]) + 1):
                return _lone_column(subs, out, x, y)
            return np.einsum(sub, x, y)

    return _scatter(_terms(a, b, tab.pair_i, tab.pair_j, tab.diag_i, mul),
                    tab)
