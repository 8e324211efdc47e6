"""Single defaults table for check tolerances.

Every gate used by the command-line checks and the full suite lives here,
overridable per run; check code never hard-codes its own gate.
"""

from __future__ import annotations

import math
from typing import Mapping

__all__ = ["DEFAULTS", "ToleranceError", "resolve"]

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
    # extended soliton residual sup over sample points
    "soliton": 1e-7,
    # gradient examples on flat x space-form products hit machine precision
    "soliton_gradient_product": 1e-9,
    # full residual at a solved squashed-sphere root
    "berger_residual": 1e-7,
    # solved squashed-sphere (a, lambda) against the frozen root
    "berger_root": 1e-9,
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


class ToleranceError(ValueError):
    """Unknown tolerance key or unusable override value."""


def resolve(overrides: Mapping[str, float] | None = None) -> dict[str, float]:
    """The defaults table merged with per-run overrides."""
    merged = dict(DEFAULTS)
    if overrides:
        bad = set(overrides) - set(DEFAULTS)
        if bad:
            raise ToleranceError(
                f"unknown tolerance keys {sorted(bad)}; "
                f"known: {sorted(DEFAULTS)}")
        for key, value in overrides.items():
            value = float(value)
            if not 0.0 < value < math.inf:  # NaN fails too
                raise ToleranceError(
                    f"tolerance {key!r} must be finite and positive, "
                    f"got {value!r}")
            merged[key] = value
    return merged
