"""Dev-time fit of the closed-form product Bach coefficients.

Fits the ansatz for B on R x N^3 and K^2 x L^2 against the general jet
pipeline over random conformal factor metrics, prints the coefficients
(as fractions) and the fit residual.  The frozen rationals live in
bachlab/products.py; rerun this script to re-derive them.
"""
from fractions import Fraction

import numpy as np

from bachlab import charts
from bachlab.curvature import on_points
from bachlab.products import FactorCurvature

UPPER3 = np.triu_indices(3)
UPPER2 = np.triu_indices(2)


def product_bach(man, points):
    """B of a product chart at each point, the point axis last."""
    return on_points(man, points, lambda fr: fr.bach.value)


def entry_rows(terms, upper):
    """One row per point and upper-triangle entry (point-major), one
    column per (n, n, N) term."""
    return np.stack([t[upper].T for t in terms], axis=-1).reshape(
        -1, len(terms))


def line_family_rows():
    """Rows for B_tt and B|_N on R x N^3 for several N and points."""
    factors = [
        charts.conformal(charts.berger_sphere(1.3), "0.2*sin(be)*cos(al)"),
        charts.conformal(charts.round_sphere(3), "0.25*cos(ch) + 0.1*sin(th)"),
        charts.conformal(charts.flat_torus((6.0, 7.0, 5.0)),
                         "0.3*sin(t0) + 0.2*cos(t1 + t2)"),
        charts.berger_sphere(0.8),
    ]
    rows_tt, vals_tt = [], []
    rows_n, vals_n = [], []
    for N in factors:
        man = charts.product([charts.line(), N])
        pts = charts.sample_points(N, 6, margin=0.15)
        B = product_bach(man, np.hstack([np.zeros((len(pts), 1)), pts]))
        fc = FactorCurvature.at(N, pts)
        S, lapS, ric_n2 = fc.scalar, fc.lap_scalar, fc.ricci_norm2
        rows_tt.append(np.column_stack([lapS, ric_n2, S * S]))
        vals_tt.append(B[0, 0])
        # N-block rows: one scalar equation per tensor entry
        rows_n.append(entry_rows(
            [fc.lap_ricci, fc.hess_scalar, fc.ricci_sq, S * fc.ricci,
             lapS * fc.g, ric_n2 * fc.g, S * S * fc.g], UPPER3))
        vals_n.append(B[1:, 1:][UPPER3].T.ravel())
        # mixed block must vanish
        assert np.abs(B[0, 1:]).max() < 1e-9, "mixed block not zero"
    return (np.concatenate(rows_tt), np.concatenate(vals_tt),
            np.concatenate(rows_n), np.concatenate(vals_n))


def surface_family_rows():
    """Rows for B|_K on K^2 x L^2."""
    pairs = [
        (charts.conformal_round_sphere("0.3*cos(th)"),
         charts.conformal(charts.flat_torus((6.0, 7.0)),
                          "0.25*sin(t0)*cos(t1)")),
        (charts.conformal(charts.flat_torus((5.0, 8.0)),
                          "0.3*cos(t0) + 0.15*sin(t1)"),
         charts.conformal_round_sphere("0.2*sin(th)*cos(ph)")),
        (charts.conformal(charts.hyperbolic_2(), "0.1*x*y"),
         charts.conformal_round_sphere("0.25*cos(th)")),
    ]
    rows, vals = [], []
    for K, L in pairs:
        man = charts.product([K, L])
        ptsK = charts.sample_points(K, 5, margin=0.2)
        ptsL = charts.sample_points(L, 5, margin=0.2)
        B = product_bach(man, np.hstack([ptsK, ptsL]))
        fk, fl = FactorCurvature.at(K, ptsK), FactorCurvature.at(L, ptsL)
        SK, SL, gK = fk.scalar, fl.scalar, fk.g
        rows.append(entry_rows(
            [fk.hess_scalar, fk.lap_scalar * gK, fl.lap_scalar * gK,
             SK * SK * gK, SL * SL * gK, SK * SL * gK], UPPER2))
        vals.append(B[:2, :2][UPPER2].T.ravel())
        assert np.abs(B[:2, 2:]).max() < 1e-9, "mixed block not zero"
    return np.concatenate(rows), np.concatenate(vals)


def report(name, A, b, labels):
    coef, res, rank, sv = np.linalg.lstsq(A, b, rcond=None)
    resid = np.abs(A @ coef - b).max()
    print(f"--- {name} (rows {A.shape[0]}, rank {rank}, "
          f"cond {sv[0]/sv[-1]:.2e}) max resid {resid:.3e}")
    for lab, c in zip(labels, coef):
        fr = Fraction(c).limit_denominator(1000)
        print(f"  {lab:14s} {c:+.12f}  ~ {fr}")
    return coef


rtt, vtt, rn, vn = line_family_rows()
report("line x N3, tt block", rtt, vtt, ["lapS", "|Ric|^2", "S^2"])
report("line x N3, N block", rn, vn,
       ["lapRic", "hessS", "Ric^2", "S*Ric", "lapS*g", "|Ric|^2*g", "S^2*g"])
rk, vk = surface_family_rows()
report("K2 x L2, K block", rk, vk,
       ["hessS_K", "lapS_K*g", "lapS_L*g", "S_K^2*g", "S_L^2*g", "S_KS_L*g"])
