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

The integrator is one scalar Dormand-Prince 5(4) stepper on Python floats
(Dormand & Prince 1980; Hairer, Norsett & Wanner, Solving ODEs I, II.4
and II.6).  It follows the rules of scipy's ``solve_ivp(method="RK45")``
step for step: the same tableau with the last stage reused, the same
initial step, error norm, step-size factors and minimum step, and events
located by Brent's method (`roots.brent`, which runs as scipy's ``brentq``)
on the quartic dense output.  A scan row is a few thousand steps, where
scipy's per-step NumPy overhead dominated; ``tests/test_profiles.py`` keeps
``solve_ivp`` as the reference and checks classes, closing times, S-ranges
and step counts against it.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import charts, roots
from .tolerances import DEFAULTS, FIXED

__all__ = [
    "ProfileError", "ScanOutcome", "ProfileRun",
    "CLOSED", "COMPLETE_OPEN", "CURVATURE_BLOWUP", "STEP_FAILURE",
    "series_start", "integrate_profile", "scan",
    "scan_from_config", "table_to_csv", "DEFAULT_S0_GRID", "DEFAULT_C_GRID",
]

CLOSED = "Closed"
COMPLETE_OPEN = "CompleteOpen"
CURVATURE_BLOWUP = "CurvatureBlowUp"
STEP_FAILURE = "StepFailure"
CLASSIFICATIONS = (CLOSED, COMPLETE_OPEN, CURVATURE_BLOWUP, STEP_FAILURE)

#: default scan grid: S0 in [-4, 4], c in [-2, 2], 41 cells per axis
DEFAULT_S0_GRID = tuple(float(v) for v in np.linspace(-4.0, 4.0, 41))
DEFAULT_C_GRID = tuple(float(v) for v in np.linspace(-2.0, 2.0, 41))

# integrator controls: the step tolerances, the series start t = eps and
# the closure event rho = delta
RTOL = 1e-10
ATOL = 1e-12
EPS = 1e-6
DELTA = 1e-6
# the stand-in for rho = 0 that keeps the vector field finite there
_RHO_FLOOR = 1e-300
# scipy's constants in its initial step selection
_H_FALLBACK = 1e-6
_D_SMALL = 1e-5
_D_TINY = 1e-15
_H_SHRINK = 1e-3


class ProfileError(ValueError):
    """Invalid profile state or malformed scan configuration."""


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


def _rhs_raw(t, y, c):
    """Derivatives (rho', rho'', S', S'') of the profile system at a state
    y = (rho, rho', S, S'), the form every state of this module takes."""
    # event location steps transiently past rho = 0; keep the vector field
    # finite there and let the error estimator reject the bad stages
    rho, rho_p, s, s_p = y
    if rho == 0.0:
        rho = _RHO_FLOOR
    return (rho_p, -0.5 * rho * s, s_p,
            c - s * s / 3.0 - (rho_p / rho) * s_p)


def series_start(s0: float, c: float, eps: float = EPS
                 ) -> tuple[float, float, float, float]:
    """Smooth-pole initial state (rho, rho', S, S') at t = eps.

    Substituting rho = t + a t^3 and S = S0 + s2 t^2 into the system forces
    a = -S0/12 and 4 s2 = c - S0^2/3 (smoothness forces S'(0) = 0):

        rho(eps)  = eps - (S0/12) eps^3     rho'(eps) = 1 - (S0/4) eps^2
        S(eps)    = S0 + s2 eps^2           S'(eps)   = 2 s2 eps
    """
    if eps <= 0.0:
        raise ProfileError("series start needs eps > 0")
    s2 = (c - s0 * s0 / 3.0) / 4.0
    return (eps - (s0 / 12.0) * eps ** 3, 1.0 - (s0 / 4.0) * eps ** 2,
            s0 + s2 * eps ** 2, 2.0 * s2 * eps)


def integrate_profile(s0: float, c: float, t_max: float = 40.0,
                      rtol: float = RTOL, atol: float = ATOL,
                      eps: float = EPS, delta: float = DELTA,
                      s_cap: float = 1e6) -> ProfileRun:
    """Integrate one trajectory and classify the outcome.

    The stepper is :func:`_dopri5`, a scalar Dormand-Prince 5(4) with
    scipy's RK45 step control (``tests/test_profiles.py`` checks it
    against ``solve_ivp(method="RK45")``).  Classification:

    * ``Closed`` — rho fell below ``delta`` with the smooth-cap signature
      |rho' + 1| and |S'| at most ``FIXED["profile_cap"]``; the
      closing time extrapolates the event state linearly to rho = 0.
    * ``CurvatureBlowUp`` — |S| exceeded ``s_cap``, or rho collapsed
      without the smooth-cap signature (a conical pinch concentrates
      curvature at the collapse point).
    * ``CompleteOpen`` — the horizon ``t_max`` was reached without
      incident.  The label records only that; completeness beyond the
      horizon is not asserted.
    * ``StepFailure`` — the step size fell below ten units in the last
      place of t, as it does when the vector field turns NaN.

    The samples are the accepted steps, ending at the event state when an
    event stopped the run.
    """
    # Python floats throughout: NumPy scalars would triple the step cost
    s0, c, t_max, rtol, atol, eps, delta, s_cap = map(
        float, (s0, c, t_max, rtol, atol, eps, delta, s_cap))
    start = series_start(s0, c, eps)
    if not eps < t_max < math.inf:
        raise ProfileError(
            f"t_max must be finite and exceed eps, got {t_max!r}")
    ts, ys, end = _dopri5(_rhs_raw, c, eps, start, t_max, rtol, atol, delta,
                          s_cap)
    t_close = None
    classification = end
    if end == CLOSED:
        rho_e, rho_p_e, _, s_p_e = ys[-1]
        cap = FIXED["profile_cap"]
        if abs(rho_p_e + 1.0) <= cap and abs(s_p_e) <= cap:
            t_close = float(ts[-1] + rho_e / abs(rho_p_e))
        else:
            classification = CURVATURE_BLOWUP
    y_all = np.array(ys).T
    outcome = ScanOutcome(classification=classification, t_close=t_close,
                          s_min=float(y_all[2].min()),
                          s_max=float(y_all[2].max()))
    return ProfileRun(t=np.array(ts), rho=y_all[0], rho_p=y_all[1],
                      s=y_all[2], s_p=y_all[3], outcome=outcome)


# ----------------------------------------------------------------------
# Dormand-Prince 5(4) on four unrolled float components
# ----------------------------------------------------------------------
# tableau, error weights (5th minus embedded 4th order, the 7th stage being
# f at the new point) and quartic dense output, as in scipy's RK45
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784,
                            11 / 84)
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                                17253 / 339200, -22 / 525, 1 / 40)
_P = (  # rows: stages 1, 3, 4, 5, 6, 7 (stage 2 has weight zero)
    (1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1 / 5  # -1 / (embedded order + 1)


def _rms(a: float, b: float, c: float, d: float) -> float:
    return math.sqrt(a * a + b * b + c * c + d * d) / 2.0


def _nanmax(a: float, b: float) -> float:
    """max(a, b) that keeps a NaN in either place, like ``np.maximum``."""
    return a if a > b or a != a else b


def _initial_step(rhs, c, t, y, f, t_end, rtol, atol) -> float:
    """scipy's ``select_initial_step`` (Hairer, Norsett & Wanner, II.4)."""
    w = [atol + abs(v) * rtol for v in y]
    d0 = _rms(*(v / s for v, s in zip(y, w)))
    d1 = _rms(*(v / s for v, s in zip(f, w)))
    h0 = _H_FALLBACK if d0 < _D_SMALL or d1 < _D_SMALL else 0.01 * d0 / d1
    h0 = min(h0, t_end - t)
    f1 = rhs(t + h0, tuple(v + h0 * fv for v, fv in zip(y, f)), c)
    d2 = _rms(*((a - b) / s for a, b, s in zip(f1, f, w))) / h0
    if d1 <= _D_TINY and d2 <= _D_TINY:
        h1 = max(_H_FALLBACK, h0 * _H_SHRINK)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_end - t)


def _dopri5(rhs, c, t, y, t_end, rtol, atol, delta, s_cap):
    """Integrate from (t, y) to ``t_end`` or the first terminal event.

    Returns ``(ts, ys, end)``: the accepted times and states, and ``end``,
    one of ``Closed`` (rho fell through ``delta``), ``CurvatureBlowUp``
    (|S| rose through ``s_cap``), ``CompleteOpen`` (``t_end`` reached) or
    ``StepFailure``.  An event is a sign change of rho - delta (falling)
    or |S| - s_cap (rising) over an accepted step, located by `roots.brent`
    on the step's dense output; the run then ends at the event state.

    Step control is scipy's RK45: error norm RMS of the error estimate
    over ``atol + rtol * max(|y|, |y_new|)``, step factor
    0.9 * err^(-1/5) held in [0.2, 10], no growth right after a rejection,
    failure below 10 ulp(t).  A step is accepted only when ``err < 1``,
    so a NaN error shrinks the step until it fails.
    """
    r, rp, s, sp = y
    k1 = rhs(t, y, c)
    h_abs = _initial_step(rhs, c, t, y, k1, t_end, rtol, atol)
    g_close = r - delta
    g_blow = abs(s) - s_cap
    ts, ys = [t], [y]
    while True:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step size fails too
                return ts, ys, STEP_FAILURE
            t_new = t + h_abs
            if t_new > t_end:
                t_new = t_end
            h = t_new - t
            h_abs = h
            a1, b1, c1, d1 = k1
            a2, b2, c2, d2 = rhs(t + _C2 * h, (
                r + (a1 * _A21) * h, rp + (b1 * _A21) * h,
                s + (c1 * _A21) * h, sp + (d1 * _A21) * h), c)
            a3, b3, c3, d3 = rhs(t + _C3 * h, (
                r + (a1 * _A31 + a2 * _A32) * h,
                rp + (b1 * _A31 + b2 * _A32) * h,
                s + (c1 * _A31 + c2 * _A32) * h,
                sp + (d1 * _A31 + d2 * _A32) * h), c)
            a4, b4, c4, d4 = rhs(t + _C4 * h, (
                r + (a1 * _A41 + a2 * _A42 + a3 * _A43) * h,
                rp + (b1 * _A41 + b2 * _A42 + b3 * _A43) * h,
                s + (c1 * _A41 + c2 * _A42 + c3 * _A43) * h,
                sp + (d1 * _A41 + d2 * _A42 + d3 * _A43) * h), c)
            a5, b5, c5, d5 = rhs(t + _C5 * h, (
                r + (a1 * _A51 + a2 * _A52 + a3 * _A53 + a4 * _A54) * h,
                rp + (b1 * _A51 + b2 * _A52 + b3 * _A53 + b4 * _A54) * h,
                s + (c1 * _A51 + c2 * _A52 + c3 * _A53 + c4 * _A54) * h,
                sp + (d1 * _A51 + d2 * _A52 + d3 * _A53 + d4 * _A54) * h),
                c)
            a6, b6, c6, d6 = rhs(t + h, (
                r + (a1 * _A61 + a2 * _A62 + a3 * _A63 + a4 * _A64
                     + a5 * _A65) * h,
                rp + (b1 * _A61 + b2 * _A62 + b3 * _A63 + b4 * _A64
                      + b5 * _A65) * h,
                s + (c1 * _A61 + c2 * _A62 + c3 * _A63 + c4 * _A64
                     + c5 * _A65) * h,
                sp + (d1 * _A61 + d2 * _A62 + d3 * _A63 + d4 * _A64
                      + d5 * _A65) * h), c)
            y_new = (
                r + h * (a1 * _B1 + a3 * _B3 + a4 * _B4 + a5 * _B5
                         + a6 * _B6),
                rp + h * (b1 * _B1 + b3 * _B3 + b4 * _B4 + b5 * _B5
                          + b6 * _B6),
                s + h * (c1 * _B1 + c3 * _B3 + c4 * _B4 + c5 * _B5
                         + c6 * _B6),
                sp + h * (d1 * _B1 + d3 * _B3 + d4 * _B4 + d5 * _B5
                          + d6 * _B6))
            k7 = rhs(t + h, y_new, c)
            a7, b7, c7, d7 = k7
            rn, rpn, sn, spn = y_new
            err = _rms(
                (a1 * _E1 + a3 * _E3 + a4 * _E4 + a5 * _E5 + a6 * _E6
                 + a7 * _E7) * h / (atol + _nanmax(abs(r), abs(rn)) * rtol),
                (b1 * _E1 + b3 * _E3 + b4 * _E4 + b5 * _E5 + b6 * _E6
                 + b7 * _E7) * h / (atol + _nanmax(abs(rp), abs(rpn)) * rtol),
                (c1 * _E1 + c3 * _E3 + c4 * _E4 + c5 * _E5 + c6 * _E6
                 + c7 * _E7) * h / (atol + _nanmax(abs(s), abs(sn)) * rtol),
                (d1 * _E1 + d3 * _E3 + d4 * _E4 + d5 * _E5 + d6 * _E6
                 + d7 * _E7) * h / (atol + _nanmax(abs(sp), abs(spn)) * rtol))
            if err < 1.0:
                if err == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = _SAFETY * err ** _EXPONENT
                    if factor > _MAX_FACTOR:
                        factor = _MAX_FACTOR
                if rejected and factor > 1.0:
                    factor = 1.0
                h_abs *= factor
                break
            factor = _SAFETY * err ** _EXPONENT
            h_abs *= factor if factor > _MIN_FACTOR else _MIN_FACTOR
            rejected = True

        g_close_new = rn - delta
        g_blow_new = abs(sn) - s_cap
        closing = g_close >= 0.0 and g_close_new <= 0.0
        blowing = g_blow <= 0.0 and g_blow_new >= 0.0
        if closing or blowing:
            # y(t + x h) = y + h (q1 x + q2 x^2 + q3 x^3 + q4 x^4)
            stages = (k1, (a3, b3, c3, d3), (a4, b4, c4, d4),
                      (a5, b5, c5, d5), (a6, b6, c6, d6), k7)
            q = [[sum(k[i] * p[j] for k, p in zip(stages, _P))
                  for j in range(4)] for i in range(4)]

            def dense(tt, i):
                x = (tt - t) / h
                x2 = x * x
                x3 = x2 * x
                qi = q[i]
                return y[i] + h * (qi[0] * x + qi[1] * x2 + qi[2] * x3
                                   + qi[3] * x3 * x)

            events = []
            if closing:
                events.append((roots.brent(lambda tt: dense(tt, 0) - delta,
                                           t, t_new), CLOSED))
            if blowing:
                events.append((roots.brent(
                    lambda tt: abs(dense(tt, 2)) - s_cap, t, t_new),
                    CURVATURE_BLOWUP))
            t_ev, end = min(events, key=lambda event: event[0])
            ts.append(t_ev)
            ys.append(tuple(dense(t_ev, i) for i in range(4)))
            return ts, ys, end

        t, y, k1 = t_new, y_new, k7
        r, rp, s, sp = y_new
        g_close, g_blow = g_close_new, g_blow_new
        ts.append(t)
        ys.append(y)
        if t >= t_end:
            return ts, ys, COMPLETE_OPEN


# ----------------------------------------------------------------------
# grid scan
# ----------------------------------------------------------------------
def scan(s0_values: Sequence[float] | None = None,
         c_values: Sequence[float] | None = None,
         s_range_tol: float = DEFAULTS["scan_s_range"],
         **controls) -> dict:
    """Classify every (S0, c) cell of a grid.

    Returns ``{"rows": [...], "classes": {class: count},
    "closed_count": int, "corroborates": bool, "s_range_tol": float}``.
    ``classes`` tallies the rows' classes in the order they first appear,
    and ``closed_count`` is its ``Closed`` count.  ``corroborates`` records
    that every ``Closed`` cell has S-range at most ``s_range_tol`` — closed
    profiles carry constant curvature (round caps).  The full table is
    exploratory data about the open cells, never an assertion about
    completeness.  An empty axis raises `ProfileError`: zero cells would
    corroborate vacuously.
    """
    s0_grid = DEFAULT_S0_GRID if s0_values is None else tuple(
        float(v) for v in s0_values)
    c_grid = DEFAULT_C_GRID if c_values is None else tuple(
        float(v) for v in c_values)
    if not (s0_grid and c_grid):
        raise ProfileError("a scan needs at least one S0 and one c value")
    rows = []
    classes: dict[str, int] = {}
    corroborates = True
    for s0 in s0_grid:
        for c in c_grid:
            out = integrate_profile(s0, c, **controls).outcome
            cls = out.classification
            classes[cls] = classes.get(cls, 0) + 1
            # a NaN S-range fails too
            if cls == CLOSED and not out.s_range <= s_range_tol:
                corroborates = False
            rows.append({
                "S0": s0, "c": c, "class": cls,
                "t_close": out.t_close,
                "S_min": out.s_min, "S_max": out.s_max,
            })
    return {"rows": rows, "classes": classes,
            "closed_count": classes.get(CLOSED, 0),
            "corroborates": corroborates, "s_range_tol": s_range_tol}


_CONTROL_FIELDS = ("t_max", "rtol", "atol", "eps", "delta", "s_cap",
                   "s_range_tol")


def _config_number(value, path: str) -> float:
    if not charts.is_number(value):
        raise ProfileError(f"{path} must be a finite number, got {value!r}")
    return float(value)


def _config_axis(value, name: str) -> tuple[float, ...] | None:
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        return tuple(_config_number(v, f"{name}[{k}]")
                     for k, v in enumerate(value))
    charts.read_document(value, ("lo", "hi", "count"), f"{name} grid",
                         ProfileError)
    if not {"lo", "hi", "count"} <= set(value):
        raise ProfileError(f"{name} grid needs lo, hi and count")
    if not charts.is_count(value["count"]):
        raise ProfileError(f"{name} grid count must be a whole number "
                           f">= 1, got {value['count']!r}")
    return tuple(np.linspace(_config_number(value["lo"], f"{name}.lo"),
                             _config_number(value["hi"], f"{name}.hi"),
                             value["count"]))


def _config_control(value, name: str) -> float:
    """A control of a scan document: a finite positive number, and below 1
    for rtol.  Out of range, it would reclassify cells or pass any."""
    top = 1.0 if name == "rtol" else math.inf
    if not (charts.is_number(value) and 0.0 < value < top):
        raise ProfileError(
            f"scan field {name!r} must be finite and positive"
            f"{' and below 1' if name == 'rtol' else ''}, got {value!r}")
    return float(value)


def scan_from_config(doc: Mapping) -> dict:
    """Run a scan from a JSON-style configuration document.

    Schema: ``{"s0": [values...] | {"lo", "hi", "count"}, "c": same,
    "t_max": num, "rtol": num, "atol": num, "eps": num, "delta": num,
    "s_cap": num, "s_range_tol": num}``; every field optional, read by the
    `charts` document rules, and an error names its field (``s0.lo``).
    """
    charts.read_document(doc, ("s0", "c") + _CONTROL_FIELDS, "a scan",
                         ProfileError)
    controls = {k: _config_control(doc[k], k) for k in _CONTROL_FIELDS
                if k in doc}
    return scan(_config_axis(doc.get("s0"), "s0"),
                _config_axis(doc.get("c"), "c"), **controls)


def table_to_csv(rows: Sequence[Mapping]) -> str:
    """Outcome table as CSV text (columns S0,c,class,t_close,S_min,S_max)."""
    buf = io.StringIO()
    buf.write("S0,c,class,t_close,S_min,S_max\n")
    for row in rows:
        t_close = "" if row["t_close"] is None else repr(row["t_close"])
        buf.write(f"{row['S0']!r},{row['c']!r},{row['class']},{t_close},"
                  f"{row['S_min']!r},{row['S_max']!r}\n")
    return buf.getvalue()
