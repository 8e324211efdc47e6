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

`FactorCurvature` holds a factor's data at one point or at each point of
a point set, with the point axis last; the closed forms and scalar
relations are elementwise, so they take either and give each point's
value bit for bit.  The checks below build one `FactorCurvature` per
factor point set and take every point set, factor or product, in bounded
frames through `curvature.on_points`.  `homogeneous` gives the same data
of a left-invariant metric from its structure constants.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import tolerances
from .charts import Chart, line, product, sample_points
from .curvature import CurvatureFrame, on_points
from .report import sup


class ProductFormulaError(ValueError):
    """Factor data does not meet a closed-form formula's hypotheses."""


@dataclass
class FactorCurvature:
    """Curvature data of one factor, from its own metric, at one point or
    at each point of an ``(N, dim)`` set.

    A point set gives every field its point axis last, as in the values of
    a `CurvatureFrame` over the set: ``ricci[..., k]`` and ``scalar[k]``
    are what the k-th point alone gives, bit for bit.  The closed forms
    below are elementwise in it, so they take either.
    """

    dim: int
    g: np.ndarray
    ricci: np.ndarray
    scalar: float | np.ndarray
    hess_scalar: np.ndarray
    lap_scalar: float | np.ndarray
    lap_ricci: np.ndarray
    ricci_sq: np.ndarray
    ricci_norm2: float | np.ndarray

    @classmethod
    def at(cls, chart: Chart, point) -> "FactorCurvature":
        """From the chart's frame at a point, or its frames over an
        (N, dim) array: each field after ``dim`` is the frame's quantity
        of that name."""
        def data(fr: CurvatureFrame) -> tuple:
            return tuple(getattr(fr, f.name).value for f in fields(cls)[1:])

        if np.ndim(point) == 1:
            return cls(chart.dim, *data(CurvatureFrame(chart, point)))
        return cls(chart.dim, *on_points(chart, point, data))


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
    return {"B_tt": b_tt, "B_tY": np.zeros((3,) + np.shape(s)), "B_YZ": b_yz}


def bach_surface_product(fck: FactorCurvature, fcl: FactorCurvature
                         ) -> dict[str, np.ndarray]:
    """Bach components of K^2 x L^2 from the two surface factors."""
    if fck.dim != 2 or fcl.dim != 2:
        raise ProductFormulaError(
            "surface-product formula needs two 2-dimensional factors, "
            f"got {fck.dim} and {fcl.dim}")

    def block(a: FactorCurvature, b: FactorCurvature) -> np.ndarray:
        coeff = (a.lap_scalar / 6.0 - b.lap_scalar / 12.0
                 + (a.scalar * a.scalar - b.scalar * b.scalar) / 24.0)
        return -a.hess_scalar / 6.0 + coeff * a.g

    return {"B_K": block(fck, fcl),
            "B_mixed": np.zeros((2, 2) + np.shape(fck.scalar)),
            "B_L": block(fcl, fck)}


# ----------------------------------------------------------------------
# scalar relations
# ----------------------------------------------------------------------
def circle_product_lambda(fc: FactorCurvature) -> float | np.ndarray:
    """Soliton constant for S^1 x N^3: 8 lambda = |Ric|^2 - S^2/3 >= 0."""
    if fc.dim != 3:
        raise ProductFormulaError("circle-product lambda needs N^3 data")
    return (fc.ricci_norm2 - fc.scalar * fc.scalar / 3.0) / 8.0


def line_product_lambda(fc: FactorCurvature) -> float | np.ndarray:
    """Soliton constant for R x N^3: lambda = -(|Ric|^2 - S^2/3)/24 <= 0."""
    if fc.dim != 3:
        raise ProductFormulaError("line-product lambda needs N^3 data")
    return -(fc.ricci_norm2 - fc.scalar * fc.scalar / 3.0) / 24.0


def einstein_residual_norm2(fc: FactorCurvature) -> float | np.ndarray:
    """|Ric - (S/n) g|^2 (metric norm)."""
    g, tf = fc.g, fc.ricci - (fc.scalar / fc.dim) * fc.g
    if np.ndim(fc.scalar):  # a point set: one (n, n) pair per point
        g, tf = np.moveaxis(g, -1, 0), np.moveaxis(tf, -1, 0)
    m = np.linalg.solve(g, tf)
    return np.trace(m @ m, axis1=-2, axis2=-1)


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


def surface_c_invariant(fc: FactorCurvature) -> float | np.ndarray:
    """c = Lap S + (1/3) S^2 on a surface (4/3 on the round unit sphere)."""
    if fc.dim != 2:
        raise ProductFormulaError("the c-invariant is a surface quantity")
    return fc.lap_scalar + fc.scalar * fc.scalar / 3.0


# ----------------------------------------------------------------------
# chart-level wrappers (constancy checks over sample sets)
# ----------------------------------------------------------------------
def constancy_spread(chart: Chart, count: int = 24,
                     tol: float = tolerances.DEFAULTS["factor_constancy"]
                     ) -> tuple[dict[str, float], FactorCurvature]:
    """Max-minus-min of S and |Ric|^2 over a deterministic sample set, and
    the factor's curvature at those points that they are taken from; the
    lambda formulas need both constant, so a spread over ``tol`` raises."""
    fc = FactorCurvature.at(chart, sample_points(chart, count, margin=0.12))
    spread = {"scalar_spread": float(np.ptp(fc.scalar)),
              "ricci_norm2_spread": float(np.ptp(fc.ricci_norm2))}
    if sup(*spread.values()) > tol:
        raise ProductFormulaError(
            f"S and |Ric|^2 must be constant on N (spread {spread}) for "
            "the product lambda formulas")
    return spread, fc


def product_lambda_report(
        chart: Chart, family: str,
        tol: float = tolerances.DEFAULTS["factor_constancy"]) -> dict:
    """lambda for the S^1 x N^3 or R x N^3 family with constancy checks.

    lambda is the mean of its values at the constancy spread's points,
    and the Einstein residual the least of them."""
    if family not in ("circle", "line"):
        raise ProductFormulaError("family must be 'circle' or 'line'")
    spread, fc = constancy_spread(chart, tol=tol)
    lam = (circle_product_lambda(fc) if family == "circle"
           else line_product_lambda(fc))
    return {
        "family": family, "lambda": float(np.mean(lam)),
        "einstein_residual_norm2": float(np.min(einstein_residual_norm2(fc))),
        **spread,
    }


def surface_c_report(chart: Chart) -> dict:
    """c = Lap S + S^2/3 at 32 sample points, with its spread."""
    pts = sample_points(chart, 32, margin=0.12)
    vals = surface_c_invariant(FactorCurvature.at(chart, pts))
    return {"values": vals.tolist(), "mean": float(np.mean(vals)),
            "spread": float(np.ptp(vals))}


# ----------------------------------------------------------------------
# cross-validation against the general pipeline
# ----------------------------------------------------------------------
def line_cross_check(n_chart: Chart, count: int = 5) -> float:
    """Max |closed form - pipeline| for line x N^3 over sample points."""
    man = product([line(), n_chart])
    pts = sample_points(n_chart, count, margin=0.15)
    comp = bach_line_cross_3(FactorCurvature.at(n_chart, pts))
    t = np.full((len(pts), 1), man.center()[0])
    b = on_points(man, np.hstack([t, pts]), lambda fr: fr.bach.value)
    return sup(np.abs(b[0, 1:]), np.abs(comp["B_tt"] - b[0, 0]),
               np.abs(comp["B_YZ"] - b[1:, 1:]))


def surface_cross_check(k_chart: Chart, l_chart: Chart, count: int = 5
                        ) -> float:
    """Max |closed form - pipeline| for K^2 x L^2 over sample points."""
    man = product([k_chart, l_chart])
    pts_k = sample_points(k_chart, count, margin=0.15)
    pts_l = sample_points(l_chart, count, margin=0.15)
    comp = bach_surface_product(FactorCurvature.at(k_chart, pts_k),
                                FactorCurvature.at(l_chart, pts_l))
    b = on_points(man, np.hstack([pts_k, pts_l]), lambda fr: fr.bach.value)
    return sup(np.abs(b[:2, 2:]), np.abs(comp["B_K"] - b[:2, :2]),
               np.abs(comp["B_L"] - b[2:, 2:]))
