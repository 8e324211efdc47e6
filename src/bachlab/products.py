"""Closed-form Bach components and scalar relations on product metrics.

Two product families have closed-form Bach tensors in terms of factor
curvature alone, with coefficients frozen here as exact rationals (they
were fitted against the general jet pipeline on random non-symmetric
factor data and rounded to rationals; see scripts/fit_product_coeffs.py):

line x N^3 (coordinates t, then N):
    B_tt   = -(1/12) Lap S - (1/4) |Ric|^2 + (1/12) S^2
    B_tY   = 0
    B_YZ   = (1/2) LapRic - (1/6) Hess S - 2 Ric^2 + (7/6) S Ric
             + ( -(1/12) Lap S + (3/4) |Ric|^2 - (5/12) S^2 ) g

K^2 x L^2:
    B|_K   = -(1/6) Hess S_K
             + ( (1/6) Lap_K S_K - (1/12) Lap_L S_L
                 + (1/24) S_K^2 - (1/24) S_L^2 ) g_K
    mixed  = 0, and B|_L mirrors with K and L swapped.

Closed forms appear in the literature in more than one normalization;
the ones here are consistent with B = g^{km} cov_m C_kij + P^{ab} W_baij
as computed by the curvature pipeline (see curvature.py), and the suite
cross-validates every component against that pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .charts import Chart, Manifold, sample_points
from .curvature import CurvatureFrame, values
from .report import sup


class ProductFormulaError(ValueError):
    """Factor data does not meet a closed-form formula's hypotheses."""


@dataclass
class FactorCurvature:
    """Curvature data of one factor at one point, from its own metric."""

    role: str
    dim: int
    point: tuple[float, ...]
    g: np.ndarray
    ricci: np.ndarray
    scalar: float
    hess_scalar: np.ndarray
    lap_scalar: float
    lap_ricci: np.ndarray
    ricci_sq: np.ndarray
    ricci_norm2: float

    @classmethod
    def at(cls, chart: Chart, point: Sequence[float], role: str = "factor"
           ) -> "FactorCurvature":
        fr = CurvatureFrame(chart, point)
        return cls(
            role=role, dim=chart.dim, point=tuple(float(x) for x in point),
            g=values(fr.g), ricci=values(fr.ricci), scalar=fr.scalar.value,
            hess_scalar=values(fr.hess_scalar),
            lap_scalar=fr.lap_scalar.value,
            lap_ricci=values(fr.lap_ricci), ricci_sq=values(fr.ricci_sq),
            ricci_norm2=fr.ricci_norm2.value)


# ----------------------------------------------------------------------
# closed-form Bach components
# ----------------------------------------------------------------------
def bach_line_cross_3(fc: FactorCurvature) -> dict[str, np.ndarray | float]:
    """Bach components of (line or circle) x N^3 from N-data alone."""
    if fc.dim != 3:
        raise ProductFormulaError(
            f"line-cross formula needs a 3-dimensional factor, got {fc.dim}")
    s, r2 = fc.scalar, fc.ricci_norm2
    b_tt = -fc.lap_scalar / 12.0 - r2 / 4.0 + s * s / 12.0
    b_yz = (0.5 * fc.lap_ricci - fc.hess_scalar / 6.0 - 2.0 * fc.ricci_sq
            + (7.0 / 6.0) * s * fc.ricci
            + (-fc.lap_scalar / 12.0 + 0.75 * r2
               - (5.0 / 12.0) * s * s) * fc.g)
    return {"B_tt": b_tt, "B_tY": np.zeros(3), "B_YZ": b_yz}


def bach_surface_product(fck: FactorCurvature, fcl: FactorCurvature
                         ) -> dict[str, np.ndarray]:
    """Bach components of K^2 x L^2 from the two surface factors."""
    if fck.dim != 2 or fcl.dim != 2:
        raise ProductFormulaError(
            "surface-product formula needs two 2-dimensional factors, "
            f"got {fck.dim} and {fcl.dim}")

    def block(a: FactorCurvature, b: FactorCurvature) -> np.ndarray:
        coeff = (a.lap_scalar / 6.0 - b.lap_scalar / 12.0
                 + (a.scalar ** 2 - b.scalar ** 2) / 24.0)
        return -a.hess_scalar / 6.0 + coeff * a.g

    return {"B_K": block(fck, fcl), "B_mixed": np.zeros((2, 2)),
            "B_L": block(fcl, fck)}


# ----------------------------------------------------------------------
# scalar relations
# ----------------------------------------------------------------------
def circle_product_lambda(fc: FactorCurvature) -> float:
    """Soliton constant for S^1 x N^3: 8 lambda = |Ric|^2 - S^2/3 >= 0."""
    if fc.dim != 3:
        raise ProductFormulaError("circle-product lambda needs N^3 data")
    return (fc.ricci_norm2 - fc.scalar ** 2 / 3.0) / 8.0


def line_product_lambda(fc: FactorCurvature) -> float:
    """Soliton constant for R x N^3: lambda = -(|Ric|^2 - S^2/3)/24 <= 0."""
    if fc.dim != 3:
        raise ProductFormulaError("line-product lambda needs N^3 data")
    return -(fc.ricci_norm2 - fc.scalar ** 2 / 3.0) / 24.0


def line_product_trace_residual(fc: FactorCurvature) -> float:
    """Residual of the traced identity (1/8)|Ric|^2 - (1/24)S^2 + 3 lambda.

    With the line-product lambda substituted this vanishes identically;
    it is exposed so soliton reports can display the consistency check.
    """
    lam = line_product_lambda(fc)
    return fc.ricci_norm2 / 8.0 - fc.scalar ** 2 / 24.0 + 3.0 * lam


def einstein_residual_norm2(fc: FactorCurvature) -> float:
    """|Ric - (S/n) g|^2 at the point (metric norm)."""
    tf = fc.ricci - (fc.scalar / fc.dim) * fc.g
    gi = np.linalg.inv(fc.g)
    m = gi @ tf
    return float(np.trace(m @ m))


def line_soliton_obstruction(fc: FactorCurvature) -> np.ndarray:
    """The 3-manifold tensor condition for a soliton on (line) x N^3.

    (1/4) LapRic - Ric^2 + (7/12) S Ric + (1/3)(|Ric|^2 - (7/12) S^2) g.
    Constant-curvature metrics always satisfy it; the scan over Berger
    metrics looks for additional zeros.
    """
    if fc.dim != 3:
        raise ProductFormulaError("the obstruction tensor needs N^3 data")
    s = fc.scalar
    return (0.25 * fc.lap_ricci - fc.ricci_sq + (7.0 / 12.0) * s * fc.ricci
            + (fc.ricci_norm2 - (7.0 / 12.0) * s * s) / 3.0 * fc.g)


def surface_c_invariant(fc: FactorCurvature) -> float:
    """c = Lap S + (1/3) S^2 on a surface (4/3 on the round unit sphere)."""
    if fc.dim != 2:
        raise ProductFormulaError("the c-invariant is a surface quantity")
    return fc.lap_scalar + fc.scalar ** 2 / 3.0


# ----------------------------------------------------------------------
# chart-level wrappers (constancy checks over sample sets)
# ----------------------------------------------------------------------
def constancy_spread(chart: Chart, count: int = 24) -> dict[str, float]:
    """Max-minus-min of S and |Ric|^2 over a deterministic sample set."""
    pts = sample_points(chart, count, margin=0.12)
    s_vals, r_vals = [], []
    for p in pts:
        fr = CurvatureFrame(chart, p)
        s_vals.append(fr.scalar.value)
        r_vals.append(fr.ricci_norm2.value)
    return {"scalar_spread": float(np.ptp(s_vals)),
            "ricci_norm2_spread": float(np.ptp(r_vals))}


def product_lambda_report(chart: Chart, family: str, count: int = 24,
                          tol: float = 1e-8) -> dict:
    """lambda for the S^1 x N^3 or R x N^3 family with constancy checks."""
    if family not in ("circle", "line"):
        raise ProductFormulaError("family must be 'circle' or 'line'")
    spread = constancy_spread(chart, count)
    if sup(*spread.values()) > tol:
        raise ProductFormulaError(
            f"S and |Ric|^2 must be constant on N (spread {spread}) for "
            "the product lambda formulas")
    fc = FactorCurvature.at(chart, chart.center(), role="n3")
    lam = (circle_product_lambda(fc) if family == "circle"
           else line_product_lambda(fc))
    return {
        "family": family, "lambda": lam,
        "einstein_residual_norm2": einstein_residual_norm2(fc),
        "trace_identity_residual": (line_product_trace_residual(fc)
                                    if family == "line" else 0.0),
        **spread,
    }


def surface_c_report(chart: Chart, count: int = 32) -> dict:
    """c = Lap S + S^2/3 over a sample set, with its constancy spread."""
    pts = sample_points(chart, count, margin=0.12)
    vals = [surface_c_invariant(FactorCurvature.at(chart, p)) for p in pts]
    return {"values": [float(v) for v in vals],
            "mean": float(np.mean(vals)), "spread": float(np.ptp(vals))}


# ----------------------------------------------------------------------
# cross-validation against the general pipeline
# ----------------------------------------------------------------------
def line_cross_check(n_chart: Chart, count: int = 5) -> float:
    """Max |closed form - pipeline| for line x N^3 over sample points."""
    from .charts import line, product
    man = product([line(), n_chart])
    pts = sample_points(n_chart, count, margin=0.15)
    worst = 0.0
    for q in pts:
        fc = FactorCurvature.at(n_chart, q, role="n3")
        comp = bach_line_cross_3(fc)
        p4 = np.concatenate(([man.chart.center()[0]], q))
        b = values(CurvatureFrame(man.chart, p4).bach)
        worst = sup(worst, abs(comp["B_tt"] - b[0, 0]), np.abs(b[0, 1:]),
                    np.abs(comp["B_YZ"] - b[1:, 1:]))
    return worst


def surface_cross_check(k_chart: Chart, l_chart: Chart, count: int = 5
                        ) -> float:
    """Max |closed form - pipeline| for K^2 x L^2 over sample points."""
    from .charts import product
    man = product([k_chart, l_chart])
    pts_k = sample_points(k_chart, count, margin=0.15)
    pts_l = sample_points(l_chart, count, margin=0.15)
    worst = 0.0
    for qk, ql in zip(pts_k, pts_l):
        fck = FactorCurvature.at(k_chart, qk, role="surface_k")
        fcl = FactorCurvature.at(l_chart, ql, role="surface_l")
        comp = bach_surface_product(fck, fcl)
        b = values(CurvatureFrame(man.chart,
                                  np.concatenate([qk, ql])).bach)
        worst = sup(worst, np.abs(comp["B_K"] - b[:2, :2]),
                    np.abs(b[:2, 2:]), np.abs(comp["B_L"] - b[2:, 2:]))
    return worst


def manifold_factor_data(man: Manifold, point: Sequence[float],
                         roles: Sequence[str] | None = None
                         ) -> list[FactorCurvature]:
    """FactorCurvature for each factor of a product at a product point."""
    out = []
    for k, f in enumerate(man.factors):
        role = roles[k] if roles else f.kind
        out.append(FactorCurvature.at(f, man.factor_point(point, k), role))
    return out
