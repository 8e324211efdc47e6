"""Pointwise and integral identities for vector fields and flow tensors.

Each function evaluates both sides of one identity with the jet pipeline
and reports residuals; the integral identities integrate over the chart's
quadrature rule and report per-term magnitudes so imbalances can be judged
against the largest term.  Integral identities are exercised on constructed
flow data q := L_X g - 2 phi g, for which the generalized soliton relation
holds by definition; this gives a sound test family without solving any
flow equation.  Conformality of a field is operationalized as the sup norm
of the trace-free part of L_X g staying below a gate tolerance.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from . import charts
from .charts import Manifold
from .curvature import BASE_ORDER, CurvatureFrame, frame_at, values
from .jets import contract
from .report import sup

__all__ = [
    "IdentityError", "CONFORMAL_GATE",
    "lie_pairing_identity", "soliton_integral_identities",
    "lie_divergence_identity", "yano_identity",
    "bourguignon_ezin_integral", "soliton_conformality_integral",
    "bochner_identity", "surface_scalar_rigidity",
    "IDENTITY_IDS", "DEFAULT_CASES", "run_identity_case",
]

CONFORMAL_GATE = 1e-9


class IdentityError(ValueError):
    """Violated hypothesis or malformed identity case."""


def conformality_gap(frame: CurvatureFrame, x_jets) -> float:
    """Sup norm of the trace-free part of L_X g at the frame's point."""
    lie = frame.lie_metric(x_jets)
    return sup(np.abs(values(frame.trace_free(lie))))


def _check_conformal(gap: float, gate: float) -> None:
    if gap > gate:
        raise IdentityError(
            f"field is not conformal: trace-free Lie sup {gap:.3e} "
            f"exceeds the gate {gate:.1e}")


def _constructed_flow(man: Manifold, point, x_exprs: Sequence[str],
                      phi_expr: str):
    """The order-3 frame at a point, X, L_X g, phi and q = L_X g - 2 phi g."""
    frame = CurvatureFrame(man.chart, point, order=3)
    x = frame.vector_jets(x_exprs, order=3)
    lie = frame.lie_metric(x)
    phi = frame.scalar_jet(phi_expr, order=lie.order)
    q = lie - 2.0 * phi * frame.g_at(lie.order)
    return frame, x, lie, phi, q


# ----------------------------------------------------------------------
# pointwise identities
# ----------------------------------------------------------------------
def lie_pairing_identity(man: Manifold, x_exprs: Sequence[str],
                         t_exprs: Sequence[Sequence[str]],
                         count: int = 50) -> dict:
    """<L_X g, T> = 2 div(i_X T) - 2 (div T)(X) for any X and symmetric T."""
    points = charts.residual_sample_points(man, count)
    n = man.dim
    if len(t_exprs) != n or any(len(row) != n for row in t_exprs):
        raise IdentityError(f"T must be {n} x {n}")
    res = np.empty(len(points))
    for k, p in enumerate(points):
        frame = frame_at(man, p)
        x = frame.vector_jets(x_exprs)
        t = frame.scalar_jet(t_exprs)
        lie = frame.lie_metric(x)
        lhs = values(frame.inner_sym2(lie, t))
        alpha = contract("ij,j->i", t, x)
        div_t = frame.divergence_sym2(t)
        rhs = 2.0 * values(frame.divergence_oneform(alpha)) \
            - 2.0 * values(frame.pair_oneform_vector(div_t, x))
        res[k] = abs(lhs - rhs)
    return {"points": points, "residuals": res, "sup": sup(res)}


def lie_divergence_identity(man: Manifold, x_exprs: Sequence[str],
                            phi_expr: str = "0", count: int = 50) -> dict:
    """div(L_X g) = div of the trace-free constructed q plus (2/n) d(div X)."""
    points = charts.residual_sample_points(man, count)
    n = man.dim
    res = np.empty(len(points))
    for k, p in enumerate(points):
        frame, x, lie, _, q = _constructed_flow(man, p, x_exprs, phi_expr)
        lhs = values(frame.divergence_sym2(lie))
        d_div = values(frame.divergence_vector(x).grad())
        rhs = values(frame.divergence_sym2(frame.trace_free(q))) \
            + (2.0 / n) * d_div
        res[k] = float(np.abs(lhs - rhs).max())
    return {"points": points, "residuals": res, "sup": sup(res)}


def yano_identity(man: Manifold, x_exprs: Sequence[str], count: int = 50,
                  gate: float = CONFORMAL_GATE) -> dict:
    """L_X S = -2 sigma S - 2(n-1) Lap(sigma), sigma = div(X)/n, X conformal."""
    points = charts.residual_sample_points(man, count)
    n = man.dim
    res = np.empty(len(points))
    gap = 0.0
    for k, p in enumerate(points):
        frame = frame_at(man, p)
        x = frame.vector_jets(x_exprs)
        gap = sup(gap, conformality_gap(frame, x))
        sigma = frame.divergence_vector(x) * (1.0 / n)
        lhs = values(frame.pair_oneform_vector(frame.grad_scalar_lo, x))
        rhs = -2.0 * values(sigma) * values(frame.scalar) \
            - 2.0 * (n - 1) * values(frame.laplacian(sigma))
        res[k] = abs(lhs - rhs)
    _check_conformal(gap, gate)
    return {"points": points, "residuals": res, "sup": sup(res),
            "conformality_gap": gap}


def bochner_identity(man: Manifold, h_expr: str, count: int = 50) -> dict:
    """div(Hess h) = Ric(grad h) + d(Lap h) as 1-forms."""
    points = charts.residual_sample_points(man, count)
    res = np.empty(len(points))
    for k, p in enumerate(points):
        frame = frame_at(man, p)
        h = frame.scalar_jet(h_expr)
        hess = frame.hessian(h)
        lhs = values(frame.divergence_sym2(hess))
        ric_grad = values(frame.contract_vector_sym2(
            frame.gradient_vector(h), frame.ricci))
        d_lap = values(frame.laplacian(h).grad())
        res[k] = float(np.abs(lhs - ric_grad - d_lap).max())
    return {"points": points, "residuals": res, "sup": sup(res)}


# ----------------------------------------------------------------------
# integral identities
# ----------------------------------------------------------------------
def _compact_quadrature(man: Manifold, resolution):
    chart = man.chart
    if not chart.compact:
        raise IdentityError(
            f"integral identities need a compact chart; {chart.name!r} "
            "is an open patch")
    return charts.quadrature(chart, resolution)


def soliton_integral_identities(man: Manifold, x_exprs: Sequence[str],
                                phi_expr: str = "0",
                                resolution=None) -> dict:
    """Both integral identities for constructed flow data q = L_X g - 2 phi g.

    First:  integral of (phi tr q + (tr q)^2/(2n) + (div q)(X))
            equals -(1/2) integral of ||tracefree q||^2.
    Second: integral of (div tracefree q)(X)
            equals -(1/2) integral of ||tracefree L_X g||^2.
    """
    quad = _compact_quadrature(man, resolution)
    n = man.dim
    cols = np.empty((len(quad.nodes), 6))
    for k, p in enumerate(quad.nodes):
        frame, x, lie, phi, q = _constructed_flow(man, p, x_exprs, phi_expr)
        tr_q = frame.trace(q)
        q_bar = frame.trace_free(q)
        cols[k] = (
            values(phi) * values(tr_q),
            values(tr_q) ** 2 / (2.0 * n),
            values(frame.pair_oneform_vector(frame.divergence_sym2(q), x)),
            -0.5 * values(frame.norm2_sym2(q_bar)),
            values(frame.pair_oneform_vector(frame.divergence_sym2(q_bar),
                                             x)),
            -0.5 * values(frame.norm2_sym2(frame.trace_free(lie))),
        )
    ints = [charts.integrate(man.chart, cols[:, j], quad=quad)
            for j in range(6)]
    t_phi, t_tr, t_div, rhs1, lhs2, rhs2 = ints
    lhs1 = t_phi + t_tr + t_div
    scale1 = max(abs(t_phi), abs(t_tr), abs(t_div), abs(rhs1))
    scale2 = max(abs(lhs2), abs(rhs2))
    return {
        "terms": {"phi_trace": t_phi, "trace_sq": t_tr, "div_pair": t_div},
        "lhs1": lhs1, "rhs1": rhs1,
        "imbalance1": abs(lhs1 - rhs1), "scale1": scale1,
        "lhs2": lhs2, "rhs2": rhs2,
        "imbalance2": abs(lhs2 - rhs2), "scale2": scale2,
        "nodes": len(quad.nodes),
    }


def bourguignon_ezin_integral(man: Manifold, x_exprs: Sequence[str],
                              q_mode: str = "ricci", resolution=None,
                              gate: float = CONFORMAL_GATE,
                              bianchi_tol: float = 1e-8) -> dict:
    """Integral of L_X tr(q) vanishes for conformal X when div q = (1/2) d tr q.

    ``q_mode`` selects the flow tensor: ``"ricci"`` (the divergence
    condition is the contracted second Bianchi identity) or
    ``"scalar_metric"`` (q = S g, which satisfies it in dimension 2 only).
    """
    if q_mode not in ("ricci", "scalar_metric"):
        raise IdentityError(f"unknown q_mode {q_mode!r}")
    if q_mode == "scalar_metric" and man.dim != 2:
        raise IdentityError("q = S g satisfies the divergence condition "
                            "in dimension 2 only")
    quad = _compact_quadrature(man, resolution)
    vals = np.empty(len(quad.nodes))
    absvals = np.empty(len(quad.nodes))
    bianchi = gap = 0.0
    for k, p in enumerate(quad.nodes):
        frame = frame_at(man, p)
        x = frame.vector_jets(x_exprs)
        gap = sup(gap, conformality_gap(frame, x))
        if q_mode == "ricci":
            q = frame.ricci
        else:
            q = frame.scalar * frame.g_at(frame.scalar.order)
        tr_q = frame.trace(q)
        d_tr = tr_q.grad()
        bianchi = sup(bianchi, np.abs(values(frame.divergence_sym2(q))
                                      - 0.5 * values(d_tr)))
        vals[k] = values(frame.pair_oneform_vector(d_tr, x))
        absvals[k] = abs(values(tr_q))
    _check_conformal(gap, gate)
    if bianchi > bianchi_tol:
        raise IdentityError(
            f"q does not satisfy div q = (1/2) d tr q: residual {bianchi:.3e}")
    integral = charts.integrate(man.chart, vals, quad=quad)
    scale = charts.integrate(man.chart, absvals, quad=quad)
    return {"integral": integral, "scale": scale,
            "conformality_gap": gap, "bianchi_residual": bianchi,
            "nodes": len(quad.nodes)}


def soliton_conformality_integral(man: Manifold, x_exprs: Sequence[str],
                                  phi_expr: str = "0", resolution=None,
                                  tol: float = 1e-7,
                                  gate: float = CONFORMAL_GATE) -> dict:
    """Integral of ||tracefree q||^2 + ((n-2)/n) L_X tr q for constructed q.

    When the integral vanishes the field must be conformal; the report
    carries the conformality sup so the conclusion can be asserted.  The
    divergence-condition residual of the constructed q is reported (it is
    a hypothesis of the vanishing statement, not automatic).
    """
    quad = _compact_quadrature(man, resolution)
    n = man.dim
    qbar_vals = np.empty(len(quad.nodes))
    lie_tr_vals = np.empty(len(quad.nodes))
    bianchi = 0.0
    conf = 0.0
    for k, p in enumerate(quad.nodes):
        frame, x, lie, _, q = _constructed_flow(man, p, x_exprs, phi_expr)
        qbar_vals[k] = values(frame.norm2_sym2(frame.trace_free(q)))
        d_tr = frame.trace(q).grad()
        lie_tr_vals[k] = values(frame.pair_oneform_vector(d_tr, x))
        bianchi = sup(bianchi, np.abs(values(frame.divergence_sym2(q))
                                      - 0.5 * values(d_tr)))
        conf = sup(conf, np.abs(values(frame.trace_free(lie))))
    qbar_int = charts.integrate(man.chart, qbar_vals, quad=quad)
    lie_tr_int = charts.integrate(man.chart, lie_tr_vals, quad=quad)
    total = qbar_int + (n - 2.0) / n * lie_tr_int
    scale = max(qbar_int, abs((n - 2.0) / n * lie_tr_int), 1.0)
    vanishes = abs(total) <= tol * scale
    if vanishes and conf > gate:
        raise IdentityError(
            f"integral vanishes but the field is not conformal "
            f"(trace-free Lie sup {conf:.3e}); inconsistent data")
    verdict = "conformal" if vanishes else "nonzero"
    return {"integral": total, "qbar_integral": qbar_int,
            "lie_trace_integral": lie_tr_int, "scale": scale,
            "bianchi_residual": bianchi, "conformality_sup": conf,
            "verdict": verdict, "nodes": len(quad.nodes)}


# ----------------------------------------------------------------------
# compact-surface scalar rigidity
# ----------------------------------------------------------------------
def surface_scalar_rigidity(man: Manifold, resolution=None,
                            c_tol: float = 1e-8, tol: float = 1e-7) -> dict:
    """Rigidity machinery on a compact surface with Lap(S) + S^2/3 constant.

    Checks, in order: the hypothesis (the invariant c = Lap(S) + S^2/3 is
    constant over the chart within ``c_tol``; violated hypothesis raises);
    the pointwise consequence grad(S^2) = -3 grad(Lap S) (the latter exact,
    from the order-5 frame built at each interior point); the integral
    identity  int ||Hess S||^2 = (1/4) int (Lap S)^2;  the pointwise bound
    ||Hess S||^2 >= (Lap S)^2 / 2;  and the conclusion that S is constant.
    """
    chart = man.chart
    if chart.dim != 2:
        raise IdentityError("scalar rigidity applies to surfaces")
    quad = _compact_quadrature(man, resolution)
    # pointwise checks run on interior sample points: quadrature nodes next
    # to chart degeneracies (sphere poles) amplify harmless rounding in
    # Lap(S) through the inverse metric and would mask the real question
    interior = charts.sample_points(chart, 24)
    c_vals = np.empty(len(interior))
    s_vals = np.empty(len(interior))
    lap_vals = np.empty(len(interior))
    slack = np.empty(len(interior))
    grad_res = 0.0
    for k, p in enumerate(interior):
        frame = CurvatureFrame(chart, p, order=BASE_ORDER + 1)
        s = values(frame.scalar)
        lap = values(frame.lap_scalar)
        hess2 = values(frame.norm2_sym2(frame.hess_scalar))
        c_vals[k] = lap + s * s / 3.0
        s_vals[k] = s
        lap_vals[k] = lap
        slack[k] = hess2 - lap * lap / 2.0
        grad_s2 = 2.0 * s * values(frame.grad_scalar_lo)
        grad_lap = values(frame.lap_scalar.grad())
        grad_res = sup(grad_res, np.abs(grad_s2 + 3.0 * grad_lap))
    cs_slack = float(np.min(slack))  # NaN propagates and fails below
    c_spread = float(np.ptp(c_vals))
    if not c_spread <= c_tol:  # a NaN spread violates it too
        raise IdentityError(
            f"hypothesis violated: c = Lap(S) + S^2/3 has spread "
            f"{c_spread:.3e} over the chart (tolerance {c_tol:.1e})")
    hess2_nodes = np.empty(len(quad.nodes))
    lap2_nodes = np.empty(len(quad.nodes))
    for k, p in enumerate(quad.nodes):
        frame = frame_at(man, p)
        lap2_nodes[k] = values(frame.lap_scalar) ** 2
        hess2_nodes[k] = values(frame.norm2_sym2(frame.hess_scalar))
    hess2_int = charts.integrate(chart, hess2_nodes, quad=quad)
    lap2_int = charts.integrate(chart, lap2_nodes, quad=quad)
    int_scale = max(hess2_int, lap2_int / 4.0, 1.0)
    s_spread = float(np.ptp(s_vals))
    lap_sup = float(np.abs(lap_vals).max())
    passed = bool(grad_res <= 1e-6
                  and abs(hess2_int - lap2_int / 4.0) <= tol * int_scale
                  and cs_slack >= -1e-10
                  and s_spread <= tol and lap_sup <= tol)
    return {
        "c_spread": c_spread,
        "grad_identity_sup": grad_res,
        "hess_sq_integral": hess2_int,
        "quarter_lap_sq_integral": lap2_int / 4.0,
        "cauchy_schwarz_slack": cs_slack,
        "scalar_spread": s_spread,
        "lap_scalar_sup": lap_sup,
        "scalar_constant": bool(s_spread <= tol),
        "passed": passed,
    }


# ----------------------------------------------------------------------
# CLI case plumbing
# ----------------------------------------------------------------------
_CASE_FIELDS = {"manifold", "X", "phi", "T", "h", "q", "count",
                "resolution"}

# conformal gradient field and a generic tensor on the round 2-sphere
_ROUND_CONFORMAL_X = ("-sin(th)", "0")
_GENERIC_T = (("1 + 0.3*cos(th)", "0.2*sin(th)*sin(ph)"),
              ("0.2*sin(th)*sin(ph)", "2 - 0.4*cos(ph)*sin(th)"))

DEFAULT_CASES: dict[str, dict] = {
    "lemma35": {"manifold": "round_sphere_2",
                "X": ("0.4*sin(ph)*sin(th)", "0.7"),
                "T": _GENERIC_T},
    "thm32": {"manifold": "round_sphere_2", "X": _ROUND_CONFORMAL_X,
              "phi": "0.3*cos(th)"},
    "yano": {"manifold": "conformal_sphere_bump", "X": _ROUND_CONFORMAL_X},
    "be": {"manifold": "conformal_sphere_bump", "X": _ROUND_CONFORMAL_X,
           "q": "ricci"},
    "thm38": {"manifold": "round_sphere_2", "X": _ROUND_CONFORMAL_X,
              "phi": "0.1*cos(th)"},
    "bochner": {"manifold": "conformal_sphere_bump",
                "h": "0.5*cos(th) + 0.2*sin(th)*cos(ph)"},
    "lemma48": {"manifold": "round_sphere_2"},
}


def _case_manifold(doc: Mapping) -> Manifold:
    ref = doc.get("manifold")
    if isinstance(ref, str):
        return charts.get_example(ref)
    if isinstance(ref, Mapping):
        return charts.manifold_from_spec(ref)
    raise IdentityError("case needs a manifold name or document")


def run_identity_case(identity_id: str, doc: Mapping | None = None,
                      tol: float = 1e-7) -> dict:
    """Run one identity check from a JSON-style case document.

    Case schema: ``{"manifold": name-or-document, "X": [...], "phi": expr,
    "T": [[...]], "h": expr, "q": mode, "count": int, "resolution":
    int-or-list}``; each identity consumes the fields it needs; unknown
    fields are rejected.  Returns a report with a ``"passed"`` entry.
    """
    if identity_id not in IDENTITY_IDS:
        raise IdentityError(
            f"unknown identity id {identity_id!r}; known: "
            f"{', '.join(sorted(IDENTITY_IDS))}")
    merged = dict(DEFAULT_CASES[identity_id])
    if doc:
        if not isinstance(doc, Mapping):
            raise IdentityError("identity case must be an object")
        bad = set(doc) - _CASE_FIELDS
        if bad:
            raise IdentityError(
                f"unknown case fields {sorted(bad)}; "
                f"allowed: {sorted(_CASE_FIELDS)}")
        merged.update(doc)
    man = _case_manifold(merged)
    count = int(merged.get("count", 50))
    resolution = merged.get("resolution")
    out: dict
    if identity_id == "lemma35":
        out = lie_pairing_identity(man, merged["X"], merged["T"],
                                   count=count)
        out["passed"] = out["sup"] <= tol
    elif identity_id == "thm32":
        out = soliton_integral_identities(man, merged["X"],
                                          merged.get("phi", "0"),
                                          resolution=resolution)
        out["passed"] = (out["imbalance1"] <= tol * max(out["scale1"], 1.0)
                         and out["imbalance2"]
                         <= tol * max(out["scale2"], 1.0))
    elif identity_id == "yano":
        out = yano_identity(man, merged["X"], count=count)
        out["passed"] = out["sup"] <= tol
    elif identity_id == "be":
        out = bourguignon_ezin_integral(man, merged["X"],
                                        merged.get("q", "ricci"),
                                        resolution=resolution)
        out["passed"] = abs(out["integral"]) <= tol * max(out["scale"], 1.0)
    elif identity_id == "thm38":
        out = soliton_conformality_integral(man, merged["X"],
                                            merged.get("phi", "0"),
                                            resolution=resolution, tol=tol)
        out["passed"] = out["verdict"] == "conformal"
    elif identity_id == "bochner":
        out = bochner_identity(man, merged["h"], count=count)
        out["passed"] = out["sup"] <= tol
    else:  # lemma48
        out = surface_scalar_rigidity(man, resolution=resolution, tol=tol)
    out["identity"] = identity_id
    out.pop("points", None)
    out.pop("residuals", None)
    return out


IDENTITY_IDS = ("lemma35", "thm32", "yano", "be", "thm38", "bochner",
                "lemma48")
