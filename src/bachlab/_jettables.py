"""Index tables for dense truncated multivariate polynomials.

Coefficient vectors are laid out in graded lexicographic order: all
exponent multi-indices of total degree 0, then degree 1, and so on.  The
grading means truncating to a lower order is a prefix slice, and the
tables below turn multiplication and differentiation into flat index
arithmetic that is computed once per (dim, order) pair and cached.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

MAX_DIM = 4
MAX_ORDER = 5


def monomials(dim: int, order: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples with total degree <= order, graded-lex sorted."""
    mons = [
        alpha
        for alpha in itertools.product(range(order + 1), repeat=dim)
        if sum(alpha) <= order
    ]
    mons.sort(key=lambda alpha: (sum(alpha), alpha))
    return tuple(mons)


@dataclass(frozen=True)
class JetTables:
    """Precomputed index arithmetic for one (dim, order) pair.

    Multiplication runs over unordered slot pairs: strict pairs i < j
    contribute the symmetric term a_i b_j + a_j b_i (making the product
    exactly commutative in floating point) and diagonal slots contribute
    a_i b_i.  The kernel in `_kernels` accumulates pairs first, then
    diagonals, in table order, so every rounding is fixed by the tables.
    """

    dim: int
    order: int
    mons: tuple[tuple[int, ...], ...]
    index: dict
    pair_i: np.ndarray  # strict pairs: left slot (i < j)
    pair_j: np.ndarray  # strict pairs: right slot
    pair_k: np.ndarray  # strict pairs: destination slot
    diag_i: np.ndarray  # diagonal slots (2 deg <= order)
    diag_k: np.ndarray  # diagonal destinations
    all_k: np.ndarray  # concat(pair_k, diag_k) for one-pass accumulation
    dsrc: tuple[np.ndarray, ...]  # per axis: slot of alpha + e_axis
    dmul: tuple[np.ndarray, ...]  # per axis: factor alpha_axis + 1
    factorials: np.ndarray  # alpha! per slot
    size: int  # number of coefficients, len(mons)


def _build(dim: int, order: int) -> JetTables:
    mons = monomials(dim, order)
    index = {alpha: i for i, alpha in enumerate(mons)}
    degrees = [sum(alpha) for alpha in mons]

    pi, pj, pk, di, dk = [], [], [], [], []
    for i, alpha in enumerate(mons):
        if 2 * degrees[i] <= order:
            di.append(i)
            dk.append(index[tuple(2 * a for a in alpha)])
        for j in range(i + 1, len(mons)):
            if degrees[i] + degrees[j] <= order:
                gamma = tuple(a + b for a, b in zip(alpha, mons[j]))
                pi.append(i)
                pj.append(j)
                pk.append(index[gamma])

    n_lower = sum(1 for d in degrees if d < order)
    dsrc, dmul = [], []
    for axis in range(dim):
        src = np.empty(n_lower, dtype=np.int32)
        fac = np.empty(n_lower, dtype=np.float64)
        for t in range(n_lower):
            beta = mons[t]
            up = tuple(
                b + 1 if a == axis else b for a, b in enumerate(beta)
            )
            src[t] = index[up]
            fac[t] = beta[axis] + 1
        dsrc.append(src)
        dmul.append(fac)

    facts = np.array(
        [math.prod(math.factorial(a) for a in alpha) for alpha in mons],
        dtype=np.float64,
    )

    pair_k = np.asarray(pk, dtype=np.int32)
    diag_k = np.asarray(dk, dtype=np.int32)
    return JetTables(
        dim=dim,
        order=order,
        mons=mons,
        index=index,
        pair_i=np.asarray(pi, dtype=np.int32),
        pair_j=np.asarray(pj, dtype=np.int32),
        pair_k=pair_k,
        diag_i=np.asarray(di, dtype=np.int32),
        diag_k=diag_k,
        all_k=np.concatenate((pair_k, diag_k)),
        dsrc=tuple(dsrc),
        dmul=tuple(dmul),
        factorials=facts,
        size=len(mons),
    )


_CACHE: dict[tuple[int, int], JetTables] = {}


def tables(dim: int, order: int) -> JetTables:
    """Cached tables for a (dim, order) pair within the supported caps."""
    if not (1 <= dim <= MAX_DIM):
        raise ValueError(f"jet dim must be in 1..{MAX_DIM}, got {dim}")
    if not (0 <= order <= MAX_ORDER):
        raise ValueError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
    key = (dim, order)
    tab = _CACHE.get(key)
    if tab is None:
        tab = _CACHE[key] = _build(dim, order)
    return tab
