"""Shooting-method exploration of rotationally symmetric surface profiles.

A surface metric dt^2 + rho(t)^2 dtheta^2 has scalar curvature
S = -2 rho''/rho, and the requirement that Lap(S) + S^2/3 be a constant c
reduces, with the radial Laplacian  Lap(f) = f'' + (rho'/rho) f',  to the
second-order system

    rho'' = -(1/2) rho S,        S'' = c - S^2/3 - (rho'/rho) S'.

Trajectories launch from a smooth pole at t = 0 via a series start (the
(rho'/rho) S' term is singular there) and integrate adaptively until the
profile closes, curvature blows up, or a time horizon is reached.  A grid
scan classifies every (S0, c) cell; closed profiles are checked for the
constant-curvature signature, and the full table is emitted as exploratory
data about complete non-compact profiles (never as an assertion).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.integrate import solve_ivp

__all__ = [
    "ProfileError", "ProfileState", "ScanOutcome", "ProfileRun",
    "CLOSED", "COMPLETE_OPEN", "CURVATURE_BLOWUP", "STEP_FAILURE",
    "rhs", "series_start", "integrate_profile", "scan",
    "scan_from_config", "table_to_csv", "DEFAULT_S0_GRID", "DEFAULT_C_GRID",
]

CLOSED = "Closed"
COMPLETE_OPEN = "CompleteOpen"
CURVATURE_BLOWUP = "CurvatureBlowUp"
STEP_FAILURE = "StepFailure"
CLASSIFICATIONS = (CLOSED, COMPLETE_OPEN, CURVATURE_BLOWUP, STEP_FAILURE)

#: default scan grid: S0 in [-4, 4], c in [-2, 2], 41 cells per axis
DEFAULT_S0_GRID = tuple(np.linspace(-4.0, 4.0, 41))
DEFAULT_C_GRID = tuple(np.linspace(-2.0, 2.0, 41))

# smooth-cap acceptance at a closure event: |rho' + 1| and |S'| below this
_CAP_TOL = 1e-4


class ProfileError(ValueError):
    """Invalid profile state or malformed scan configuration."""


@dataclass(frozen=True)
class ProfileState:
    """Profile data at one radius: (t, rho, rho', S, S')."""

    t: float
    rho: float
    rho_p: float
    s: float
    s_p: float

    def as_array(self) -> np.ndarray:
        return np.array([self.rho, self.rho_p, self.s, self.s_p])


@dataclass(frozen=True)
class ScanOutcome:
    """Classification of one trajectory with its curvature range."""

    classification: str
    t_close: float | None
    s_min: float
    s_max: float

    @property
    def s_range(self) -> float:
        return self.s_max - self.s_min


@dataclass(frozen=True)
class ProfileRun:
    """Full trajectory samples together with the outcome."""

    t: np.ndarray
    rho: np.ndarray
    rho_p: np.ndarray
    s: np.ndarray
    s_p: np.ndarray
    outcome: ScanOutcome


def rhs(state: ProfileState | Sequence[float], c: float):
    """Derivatives (rho', rho'', S', S'') of the profile system.

    Accepts a :class:`ProfileState` or the plain vector (rho, rho', S, S').
    """
    if isinstance(state, ProfileState):
        rho, rho_p, s, s_p = state.rho, state.rho_p, state.s, state.s_p
    else:
        rho, rho_p, s, s_p = (float(v) for v in state)
    if rho <= 0.0:
        raise ProfileError(f"profile radius must be positive, got {rho!r}")
    return (rho_p, -0.5 * rho * s, s_p, c - s * s / 3.0 - (rho_p / rho) * s_p)


def _rhs_raw(t, y, c):
    # event location steps transiently past rho = 0; keep the vector field
    # finite there and let the error estimator reject the bad stages
    rho, rho_p, s, s_p = y
    if rho == 0.0:
        rho = 1e-300
    return (rho_p, -0.5 * rho * s, s_p,
            c - s * s / 3.0 - (rho_p / rho) * s_p)


def series_start(s0: float, c: float, eps: float = 1e-6) -> ProfileState:
    """Smooth-pole initial data at t = eps.

    Substituting rho = t + a t^3 and S = S0 + s2 t^2 into the system forces
    a = -S0/12 and 4 s2 = c - S0^2/3 (smoothness forces S'(0) = 0):

        rho(eps)  = eps - (S0/12) eps^3     rho'(eps) = 1 - (S0/4) eps^2
        S(eps)    = S0 + s2 eps^2           S'(eps)   = 2 s2 eps
    """
    if eps <= 0.0:
        raise ProfileError("series start needs eps > 0")
    s2 = (c - s0 * s0 / 3.0) / 4.0
    return ProfileState(
        t=eps,
        rho=eps - (s0 / 12.0) * eps ** 3,
        rho_p=1.0 - (s0 / 4.0) * eps ** 2,
        s=s0 + s2 * eps ** 2,
        s_p=2.0 * s2 * eps,
    )


def integrate_profile(s0: float, c: float, t_max: float = 40.0,
                      rtol: float = 1e-10, atol: float = 1e-12,
                      eps: float = 1e-6, delta: float = 1e-6,
                      s_cap: float = 1e6) -> ProfileRun:
    """Integrate one trajectory and classify the outcome.

    Classification:

    * ``Closed`` — rho fell below ``delta`` with the smooth-cap signature
      |rho' + 1| <= 1e-4 and |S'| <= 1e-4; the closing time extrapolates
      the last event state linearly to rho = 0.
    * ``CurvatureBlowUp`` — |S| exceeded ``s_cap``, or rho collapsed
      without the smooth-cap signature (a conical pinch concentrates
      curvature at the collapse point).
    * ``CompleteOpen`` — the horizon ``t_max`` was reached without
      incident.  The label records only that; completeness beyond the
      horizon is not asserted.
    * ``StepFailure`` — the integrator underflowed its step size.
    """
    start = series_start(s0, c, eps)

    def closure(t, y, c_):
        return y[0] - delta

    closure.terminal = True
    closure.direction = -1.0

    def blowup(t, y, c_):
        return abs(y[2]) - s_cap

    blowup.terminal = True
    blowup.direction = 1.0

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sol = solve_ivp(_rhs_raw, (eps, t_max), start.as_array(),
                        args=(c,), method="RK45", rtol=rtol, atol=atol,
                        events=(closure, blowup))

    t_samples = [sol.t]
    y_samples = [sol.y]
    for t_ev, y_ev in zip(sol.t_events, sol.y_events):
        if len(t_ev):
            t_samples.append(t_ev)
            y_samples.append(y_ev.T)
    t_all = np.concatenate(t_samples)
    y_all = np.concatenate(y_samples, axis=1)

    t_close = None
    if sol.status == -1:
        classification = STEP_FAILURE
    elif len(sol.t_events[0]):
        rho_e, rho_p_e, s_e, s_p_e = sol.y_events[0][0]
        t_e = sol.t_events[0][0]
        if abs(rho_p_e + 1.0) <= _CAP_TOL and abs(s_p_e) <= _CAP_TOL:
            classification = CLOSED
            t_close = float(t_e + rho_e / abs(rho_p_e))
        else:
            classification = CURVATURE_BLOWUP
    elif len(sol.t_events[1]):
        classification = CURVATURE_BLOWUP
    else:
        classification = COMPLETE_OPEN

    outcome = ScanOutcome(classification=classification, t_close=t_close,
                          s_min=float(y_all[2].min()),
                          s_max=float(y_all[2].max()))
    return ProfileRun(t=t_all, rho=y_all[0], rho_p=y_all[1],
                      s=y_all[2], s_p=y_all[3], outcome=outcome)


# ----------------------------------------------------------------------
# grid scan
# ----------------------------------------------------------------------
def scan(s0_values: Sequence[float] | None = None,
         c_values: Sequence[float] | None = None,
         s_range_tol: float = 1e-5, **controls) -> dict:
    """Classify every (S0, c) cell of a grid.

    Returns ``{"rows": [...], "closed_count": int, "corroborates": bool,
    "s_range_tol": float}`` where ``corroborates`` records that every
    ``Closed`` cell has S-range at most ``s_range_tol`` — closed profiles
    carry constant curvature (round caps).  The full table is exploratory
    data about the open cells, never an assertion about completeness.
    """
    s0_grid = DEFAULT_S0_GRID if s0_values is None else tuple(
        float(v) for v in s0_values)
    c_grid = DEFAULT_C_GRID if c_values is None else tuple(
        float(v) for v in c_values)
    rows = []
    closed = 0
    corroborates = True
    for s0 in s0_grid:
        for c in c_grid:
            out = integrate_profile(s0, c, **controls).outcome
            if out.classification == CLOSED:
                closed += 1
                if not out.s_range <= s_range_tol:  # NaN fails too
                    corroborates = False
            rows.append({
                "S0": s0, "c": c, "class": out.classification,
                "t_close": out.t_close,
                "S_min": out.s_min, "S_max": out.s_max,
            })
    return {"rows": rows, "closed_count": closed,
            "corroborates": corroborates, "s_range_tol": s_range_tol}


_CONFIG_FIELDS = {"s0", "c", "t_max", "rtol", "atol", "eps", "delta",
                  "s_cap", "s_range_tol"}
_CONTROL_FIELDS = ("t_max", "rtol", "atol", "eps", "delta", "s_cap")


def _config_axis(value, name: str) -> tuple[float, ...] | None:
    if value is None:
        return None
    if isinstance(value, Mapping):
        bad = set(value) - {"lo", "hi", "count"}
        if bad:
            raise ProfileError(
                f"unknown {name} grid fields {sorted(bad)}; "
                "allowed: ['count', 'hi', 'lo']")
        try:
            lo, hi = float(value["lo"]), float(value["hi"])
            count = int(value["count"])
        except KeyError as missing:
            raise ProfileError(
                f"{name} grid needs lo, hi and count") from missing
        if count < 1:
            raise ProfileError(f"{name} grid count must be >= 1")
        return tuple(np.linspace(lo, hi, count))
    return tuple(float(v) for v in value)


def scan_from_config(doc: Mapping) -> dict:
    """Run a scan from a JSON-style configuration document.

    Schema: ``{"s0": [values...] | {"lo", "hi", "count"}, "c": same,
    "t_max": num, "rtol": num, "atol": num, "eps": num, "delta": num,
    "s_cap": num, "s_range_tol": num}``; every field optional, unknown
    fields rejected.
    """
    if not isinstance(doc, Mapping):
        raise ProfileError("scan configuration must be an object")
    bad = set(doc) - _CONFIG_FIELDS
    if bad:
        raise ProfileError(f"unknown scan fields {sorted(bad)}; "
                           f"allowed: {sorted(_CONFIG_FIELDS)}")
    controls = {k: float(doc[k]) for k in _CONTROL_FIELDS if k in doc}
    return scan(_config_axis(doc.get("s0"), "s0"),
                _config_axis(doc.get("c"), "c"),
                s_range_tol=float(doc.get("s_range_tol", 1e-5)),
                **controls)


def table_to_csv(rows: Sequence[Mapping]) -> str:
    """Outcome table as CSV text (columns S0,c,class,t_close,S_min,S_max)."""
    buf = io.StringIO()
    buf.write("S0,c,class,t_close,S_min,S_max\n")
    for row in rows:
        t_close = "" if row["t_close"] is None else repr(row["t_close"])
        buf.write(f"{row['S0']!r},{row['c']!r},{row['class']},{t_close},"
                  f"{row['S_min']!r},{row['S_max']!r}\n")
    return buf.getvalue()
