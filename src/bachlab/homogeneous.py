"""Curvature of a left-invariant metric from its structure constants.

On a Lie group with a left-invariant metric, an orthonormal frame of
left-invariant fields e_1..e_n has constant structure constants

    c[i, j, k] = <[e_i, e_j], e_k>,

and every curvature tensor has constant components in it, so nothing here
takes a derivative (Milnor, "Curvatures of left invariant metrics on Lie
groups", Adv. Math. 21, 1976).  Koszul's formula gives the connection,

    G[i, j, k] = <nabla_{e_i} e_j, e_k> = (c_ijk - c_jki + c_kij) / 2,

then R(e_i, e_j) e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k
- nabla_{[e_i, e_j]} e_k and Ric_jk = <R(e_i, e_j) e_k, e_i>, with the
package's conventions (the round unit 3-sphere has Ric = 2 g).  The
covariant derivative of a tensor with constant components is algebraic,

    (nabla_a T)_{j k} = -G[a, j, m] T_mk - G[a, k, m] T_jm,

and so is the rough Laplacian of Ric, the trace of it applied twice.  This is
a route that shares no code with the jet pipeline or the oracle; its
`FactorCurvature` feeds the closed forms of `products` unchanged.
"""

from __future__ import annotations

import numpy as np

from .products import FactorCurvature

__all__ = ["HomogeneousError", "structure_constants", "levi_civita",
           "riemann", "factor_curvature"]


class HomogeneousError(ValueError):
    """Structure constants that are not those of an orthonormal frame."""


def structure_constants(brackets) -> np.ndarray:
    """c[i, j, k] of a 3-dimensional unimodular frame in Milnor's form
    [e_2, e_3] = l_1 e_1, [e_3, e_1] = l_2 e_2, [e_1, e_2] = l_3 e_3."""
    lam = np.asarray(brackets, dtype=float)
    if lam.shape != (3,) or not np.all(np.isfinite(lam)):
        raise HomogeneousError(
            f"Milnor brackets are three finite numbers, got {brackets!r}")
    c = np.zeros((3, 3, 3))
    for i, j, k in ((1, 2, 0), (2, 0, 1), (0, 1, 2)):
        c[i, j, k], c[j, i, k] = lam[k], -lam[k]
    return c


def _checked(c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    n = c.shape[0] if c.ndim == 3 else 0
    if c.shape != (n, n, n) or n == 0:
        raise HomogeneousError(
            f"structure constants are an (n, n, n) array, got {c.shape}")
    if not np.all(np.isfinite(c)) or np.any(c != -c.transpose(1, 0, 2)):
        raise HomogeneousError(
            "structure constants must be finite and antisymmetric in the "
            "bracket's two slots")
    return c


def _koszul(c: np.ndarray) -> np.ndarray:
    return 0.5 * (c - np.einsum("jki->ijk", c) + np.einsum("kij->ijk", c))


def _riemann(c: np.ndarray, gam: np.ndarray) -> np.ndarray:
    # nabla_i nabla_j e_k = G[j, k, l] G[i, l, m] e_m
    second = np.einsum("jkl,ilm->ijkm", gam, gam)
    return (second - second.transpose(1, 0, 2, 3)
            - np.einsum("ijl,lkm->ijkm", c, gam))


def levi_civita(c) -> np.ndarray:
    """G[i, j, k] = <nabla_{e_i} e_j, e_k>, by Koszul's formula."""
    return _koszul(_checked(c))


def riemann(c) -> np.ndarray:
    """R[i, j, k, m] = <R(e_i, e_j) e_k, e_m>."""
    c = _checked(c)
    return _riemann(c, _koszul(c))


def _rough_laplacian(gam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_a (nabla_a nabla_a T)_jk of a symmetric 2-tensor with constant
    frame components."""
    d = -np.einsum("ajm,mk->ajk", gam, t)
    d = d + d.transpose(0, 2, 1)  # d[a, j, k] = (nabla_a T)_jk
    return -(np.einsum("aam,mjk->jk", gam, d)
             + np.einsum("ajm,amk->jk", gam, d)
             + np.einsum("akm,ajm->jk", gam, d))


def factor_curvature(c) -> FactorCurvature:
    """The curvature data of the frame as a `products.FactorCurvature`:
    g is the identity, and S is constant, so its Hessian and Laplacian
    vanish."""
    c = _checked(c)
    n = c.shape[0]
    gam = _koszul(c)
    ricci = np.einsum("ijki->jk", _riemann(c, gam))
    return FactorCurvature(
        dim=n, g=np.eye(n), ricci=ricci, scalar=float(np.trace(ricci)),
        hess_scalar=np.zeros((n, n)), lap_scalar=0.0,
        lap_ricci=_rough_laplacian(gam, ricci), ricci_sq=ricci @ ricci,
        ricci_norm2=float(np.sum(ricci * ricci)))
