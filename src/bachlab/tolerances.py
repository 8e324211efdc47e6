"""Single defaults table for check tolerances.

Every gate used by the command-line checks and the full suite lives here,
overridable per run (`DEFAULTS`), or fixed where no run's table reaches
(`FIXED`); check code never hard-codes its own gate.
"""

from __future__ import annotations

from typing import Mapping

__all__ = ["DEFAULTS", "FIXED", "ToleranceError", "resolve"]

DEFAULTS: dict[str, float] = {
    # pointwise/integral identity residuals relative to the largest term
    "identity": 1e-7,
    # sup of the trace-free part of L_X g below which X counts as conformal
    "conformal_gate": 1e-9,
    # div q - (1/2) d tr q, the divergence condition of the flux identity
    "bianchi": 1e-8,
    # spread of c = Lap(S) + S^2/3 over a surface, the rigidity hypothesis
    "rigidity_c_spread": 1e-8,
    # grad(S^2) + 3 grad(Lap S), pointwise, in the rigidity check
    "rigidity_grad": 1e-6,
    # how far ||Hess S||^2 - (Lap S)^2 / 2 may dip below zero
    "rigidity_slack": 1e-10,
    # spread of S and |Ric|^2 over an N^3 factor, the constancy hypothesis
    # of the line x N^3 and S^1 x N^3 formulas
    "factor_constancy": 1e-8,
    # extended soliton residual sup over sample points
    "soliton": 1e-7,
    # gradient examples on flat x space-form products hit machine precision
    "soliton_gradient_product": 1e-9,
    # full residual at a solved squashed-sphere root
    "berger_residual": 1e-7,
    # solved squashed-sphere (a, lambda) against the frozen root
    "berger_root": 1e-9,
    # distance from a = 1 within which a squashed-sphere root is the round one
    "berger_round_exclusion": 1e-3,
    # conformal-factor field identities on the r2 x s2 soliton
    "conformal_field": 1e-10,
    # closed-form product components against the general pipeline
    "product_cross": 1e-8,
    # trace of the Bach tensor (exact identity)
    "bach_trace": 1e-8,
    # divergence of the Bach tensor, exact from an order-5 frame
    "bach_divergence": 1e-6,
    # conformal covariance of the Bach tensor (weight -2)
    "bach_conformal": 1e-6,
    # relative error against the high-precision finite-difference oracle
    "curvature_oracle": 1e-6,
    # Einstein gate for the product-lambda sign laws
    "lambda_einstein_gate": 1e-10,
    # S-range gate for Closed cells in a profile scan
    "scan_s_range": 1e-5,
    # closing-time error on round profile cells
    "round_closure": 1e-6,
    # closing-time agreement under integrator-tolerance halving
    "ode_halving": 1e-8,
}

# Gates applied where no run's table reaches: building a chart and
# classifying one profile.  A run cannot override them, so its reports,
# which record the resolved DEFAULTS, do not list them.
FIXED: dict[str, float] = {
    # the smooth-cap signature of a Closed profile: |rho' + 1| and |S'| at
    # the closure event
    "profile_cap": 1e-4,
    # |rho| at both ends below which a surface of revolution is closed
    "surface_closure": 1e-9,
}


class ToleranceError(ValueError):
    """Unknown tolerance key or unusable override value."""


def resolve(overrides: Mapping[str, float] | None = None) -> dict[str, float]:
    """The defaults table merged with per-run overrides, read by the
    `charts` document rules: known keys, each a positive number."""
    from . import charts  # here: `charts` imports this module for FIXED

    merged = dict(DEFAULTS)
    if overrides:
        charts.read_document(overrides, tuple(DEFAULTS), "a tolerance",
                             ToleranceError)
        for key, value in overrides.items():
            if not (charts.is_number(value) and value > 0.0):
                raise ToleranceError(
                    f"tolerance {key!r} must be finite and positive, "
                    f"got {value!r}")
            merged[key] = float(value)
    return merged
