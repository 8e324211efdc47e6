"""Tests for the rotationally symmetric profile ODE explorer."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bachlab import profiles
from bachlab.profiles import (ProfileError, _rhs_raw, integrate_profile,
                              scan, scan_from_config, series_start,
                              table_to_csv)
from bachlab.tolerances import FIXED


# ----------------------------------------------------------------------
# vector field
# ----------------------------------------------------------------------
def test_rhs_flat_solution():
    # rho = t, S = 0, c = 0 solves the system exactly
    for t in (0.3, 1.0, 2.5):
        d = _rhs_raw(0.0, (t, 1.0, 0.0, 0.0), 0.0)
        assert d == (1.0, -0.0, 0.0, 0.0)


def test_rhs_round_spheres():
    # r = 1: rho = sin t, S = 2, c = 4/3
    for t in (0.4, 1.1, 2.0):
        d = _rhs_raw(0.0, (np.sin(t), np.cos(t), 2.0, 0.0), 4.0 / 3.0)
        assert abs(d[1] + np.sin(t)) <= 1e-15
        assert d[3] == 0.0
    # r = 2: rho = 2 sin(t/2), S = 1/2, c = 1/12
    for t in (0.6, 2.0):
        d = _rhs_raw(0.0, (2.0 * np.sin(t / 2), np.cos(t / 2), 0.5, 0.0),
                     1.0 / 12.0)
        assert abs(d[1] + 0.5 * np.sin(t / 2)) <= 1e-15
        assert abs(d[3]) <= 1e-16


def test_rhs_accepts_state_and_stays_finite_at_collapse():
    d = _rhs_raw(0.0, (0.5, 0.8, 1.0, 0.2), 0.7)
    assert d[0] == 0.8
    assert abs(d[1] + 0.25) <= 1e-15
    assert abs(d[3] - (0.7 - 1.0 / 3.0 - 1.6 * 0.2)) <= 1e-15
    # event location steps onto rho = 0; the field stays finite there
    for state in ((0.0, 1.0, 0.0, 0.0), (0.0, 1.0, 0.5, 0.2)):
        assert all(math.isfinite(v) for v in _rhs_raw(0.0, state, 0.3))


def test_series_start_formulas():
    s0, c, eps = 1.7, 0.4, 1e-4
    rho, rho_p, s, s_p = series_start(s0, c, eps)
    s2 = (c - s0 * s0 / 3.0) / 4.0
    assert rho == eps - (s0 / 12.0) * eps ** 3
    assert rho_p == 1.0 - (s0 / 4.0) * eps ** 2
    assert s == s0 + s2 * eps ** 2
    assert s_p == 2.0 * s2 * eps
    with pytest.raises(ProfileError, match="eps"):
        series_start(1.0, 1.0, 0.0)


def test_series_start_is_consistent_with_the_system():
    # the launch point must not depend on where the series is cut over
    a = integrate_profile(2.0, 4.0 / 3.0, eps=1e-6)
    b = integrate_profile(2.0, 4.0 / 3.0, eps=2e-6)
    assert abs(a.outcome.t_close - b.outcome.t_close) <= 1e-8


# ----------------------------------------------------------------------
# single trajectories
# ----------------------------------------------------------------------
def test_round_sphere_closes_at_pi():
    run = integrate_profile(2.0, 4.0 / 3.0)
    out = run.outcome
    assert out.classification == "Closed"
    assert abs(out.t_close - np.pi) <= 1e-6
    assert max(abs(out.s_min - 2.0), abs(out.s_max - 2.0)) <= 1e-6
    mask = (run.t >= 1e-6) & (run.t <= np.pi - 1e-6)
    assert np.abs(run.rho[mask] - np.sin(run.t[mask])).max() <= 1e-7


def test_radius_two_sphere_closes_at_two_pi():
    out = integrate_profile(0.5, 1.0 / 12.0).outcome
    assert out.classification == "Closed"
    assert abs(out.t_close - 2.0 * np.pi) <= 1e-6
    assert out.s_range <= 1e-6


def test_flat_profile_stays_open():
    run = integrate_profile(0.0, 0.0, t_max=25.0)
    out = run.outcome
    assert out.classification == "CompleteOpen"
    assert out.s_min == 0.0 and out.s_max == 0.0
    assert abs(run.rho[-1] - run.t[-1]) <= 1e-9


def test_hyperbolic_profile_tracks_sinh():
    run = integrate_profile(-2.0, 4.0 / 3.0, t_max=10.0)
    assert run.outcome.classification == "CompleteOpen"
    assert run.outcome.s_range <= 1e-8
    rel = np.abs(run.rho[1:] / np.sinh(run.t[1:]) - 1.0).max()
    assert rel <= 1e-8


def test_curvature_blowup_class():
    out = integrate_profile(-4.0, -2.0).outcome
    assert out.classification == "CurvatureBlowUp"
    assert out.s_min <= -1e6 + 1.0
    assert out.t_close is None


def test_conical_pinch_reported_as_blowup():
    # rho collapses but the cap is not smooth: rho' far from -1 and the
    # singular damping term drives S' to huge values
    run = integrate_profile(3.0, 1.0)
    assert run.outcome.classification == "CurvatureBlowUp"
    assert run.rho[-1] <= 2e-6
    assert abs(run.rho_p[-1] + 1.0) > 1e-4


def test_run_ends_once_at_the_event_state():
    run = integrate_profile(2.0, 4.0 / 3.0)
    assert np.all(np.diff(run.t) > 0.0)
    assert run.rho[-1] <= 1e-6 < run.rho[-2]
    for t_max in (1e-6, math.inf, math.nan):
        with pytest.raises(ProfileError, match="t_max"):
            integrate_profile(2.0, 4.0 / 3.0, t_max=t_max)


def test_closure_time_stable_under_tolerance_halving():
    for s0, c, t_ref in ((2.0, 4.0 / 3.0, np.pi),
                         (0.5, 1.0 / 12.0, 2.0 * np.pi)):
        t1 = integrate_profile(s0, c, rtol=1e-10).outcome.t_close
        t2 = integrate_profile(s0, c, rtol=5e-11).outcome.t_close
        assert abs(t1 - t2) <= 1e-8
        assert abs(t1 - t_ref) <= 1e-6


# ----------------------------------------------------------------------
# the stepper against scipy's RK45
# ----------------------------------------------------------------------
def _scipy_reference(s0, c, t_max=40.0, rtol=1e-10, atol=1e-12, eps=1e-6,
                     delta=1e-6, s_cap=1e6):
    """The same trajectory through ``solve_ivp(method="RK45")``.

    Returns (classification, t_close, accepted times, S samples,
    right-hand-side evaluations).
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
        sol = solve_ivp(profiles._rhs_raw, (eps, t_max), start,
                        args=(c,), method="RK45", rtol=rtol, atol=atol,
                        events=(closure, blowup))
    t_close = None
    if sol.status == -1:
        classification = profiles.STEP_FAILURE
    elif len(sol.t_events[0]):
        rho_e, rho_p_e, _, s_p_e = sol.y_events[0][0]
        if (abs(rho_p_e + 1.0) <= FIXED["profile_cap"]
                and abs(s_p_e) <= FIXED["profile_cap"]):
            classification = profiles.CLOSED
            t_close = float(sol.t_events[0][0] + rho_e / abs(rho_p_e))
        else:
            classification = profiles.CURVATURE_BLOWUP
    elif len(sol.t_events[1]):
        classification = profiles.CURVATURE_BLOWUP
    else:
        classification = profiles.COMPLETE_OPEN
    return classification, t_close, sol.t, sol.y[2], sol.nfev


REFERENCE_CELLS = (
    [(2.0, 4.0 / 3.0), (0.5, 1.0 / 12.0),   # round caps, radii 1 and 2
     (-4.0, -2.0),                          # curvature blow-up
     (3.0, 1.0),                            # conical pinch
     (0.0, 0.0), (-2.0, 4.0 / 3.0)]         # open: flat, hyperbolic
    + [(1.37, c) for c in np.linspace(-2.0, 2.0, 8) + 0.21])  # shifted row


def test_stepper_matches_scipy_rk45(monkeypatch):
    raw = profiles._rhs_raw
    evals = [0]

    def counted(t, y, c):
        evals[0] += 1
        return raw(t, y, c)

    classes = set()
    for s0, c in REFERENCE_CELLS:
        ref_class, ref_t_close, ref_t, ref_s, ref_evals = _scipy_reference(
            s0, c)
        monkeypatch.setattr(profiles, "_rhs_raw", counted)
        evals[0] = 0
        run = integrate_profile(s0, c)
        monkeypatch.setattr(profiles, "_rhs_raw", raw)
        out = run.outcome
        cell = (s0, c)
        classes.add(out.classification)
        assert out.classification == ref_class, cell
        # the same accepted and rejected steps; the step sizes differ only
        # by the rounding of the error norm, which the controller amplifies
        assert evals[0] == ref_evals, cell
        assert len(run.t) == len(ref_t), cell
        assert np.abs(run.t[:-1] - ref_t[:-1]).max() <= 1e-6, cell
        if ref_t_close is None:
            assert out.t_close is None, cell
        else:
            assert abs(out.t_close - ref_t_close) <= 1e-12, cell
        if out.classification == profiles.CURVATURE_BLOWUP:
            # the event time is located to 4 eps, and S moves fast there
            assert abs(run.s[-1] - ref_s[-1]) <= 1e-6 * abs(ref_s[-1]), cell
        else:
            for mine, ref in ((out.s_min, ref_s.min()),
                              (out.s_max, ref_s.max())):
                assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref)), cell
    assert classes == {profiles.CLOSED, profiles.CURVATURE_BLOWUP,
                       profiles.COMPLETE_OPEN}


def test_nan_vector_field_is_a_step_failure(monkeypatch):
    # the stepper must reach the right-hand side through the module global
    # (the benchmark tracer counts evaluations there), and a NaN field must
    # end in StepFailure, never in a closed cap
    raw = profiles._rhs_raw
    calls = {"all": 0, "nan": 0}

    def poisoned(t, y, c):
        calls["all"] += 1
        if t > 1.0:
            calls["nan"] += 1
            return (math.nan,) * 4
        return raw(t, y, c)

    monkeypatch.setattr(profiles, "_rhs_raw", poisoned)
    run = integrate_profile(2.0, 4.0 / 3.0)
    assert calls["nan"] > 0
    assert run.outcome.classification == profiles.STEP_FAILURE
    assert run.outcome.t_close is None
    assert run.t[-1] <= 1.0
    assert np.all(np.isfinite(run.s))

    # a NaN launch makes the first step size NaN: a failure, not a hang
    out = integrate_profile(math.nan, 4.0 / 3.0).outcome
    assert out.classification == profiles.STEP_FAILURE
    assert math.isnan(out.s_min) and math.isnan(out.s_max)

    before = calls["all"]
    res = scan([2.0], [4.0 / 3.0, 1.0 / 12.0])
    assert calls["all"] > before
    assert [r["class"] for r in res["rows"]] == [profiles.STEP_FAILURE] * 2
    assert all(r["t_close"] is None for r in res["rows"])
    assert res["closed_count"] == 0


# ----------------------------------------------------------------------
# grid scan
# ----------------------------------------------------------------------
def test_scan_small_grid_golden_classes():
    res = scan(np.linspace(-4.0, 4.0, 5), np.linspace(-2.0, 2.0, 5))
    assert len(res["rows"]) == 25
    classes = sorted(r["class"] for r in res["rows"])
    assert classes.count("CurvatureBlowUp") == 24
    assert classes.count("CompleteOpen") == 1
    assert res["closed_count"] == 0
    assert res["corroborates"] is True


def test_scan_tallies_its_classes_in_order_of_first_appearance():
    for res in (scan(np.linspace(-4.0, 4.0, 5), np.linspace(-2.0, 2.0, 5)),
                scan([2.0, 0.0], [-1.0, 4.0 / 3.0], t_max=8.0)):
        tally = {}
        for row in res["rows"]:
            tally[row["class"]] = tally.get(row["class"], 0) + 1
        assert list(res["classes"].items()) == list(tally.items())
        assert res["closed_count"] == res["classes"].get("Closed", 0)
    assert res["classes"] == {"CurvatureBlowUp": 3, "Closed": 1}


def test_scan_grid_with_round_cell():
    res = scan([2.0], [4.0 / 3.0, -1.0])
    assert len(res["rows"]) == 2
    closed = [r for r in res["rows"] if r["class"] == "Closed"]
    assert len(closed) == 1
    row = closed[0]
    assert row["S0"] == 2.0 and row["c"] == 4.0 / 3.0
    assert abs(row["t_close"] - np.pi) <= 1e-6
    assert row["S_max"] - row["S_min"] <= 1e-5
    assert res["closed_count"] == 1
    assert res["corroborates"] is True


def test_scan_empty_grid():
    # zero cells would corroborate vacuously
    for s0, c in (([], [0.0]), ([0.0], []), ([], [])):
        with pytest.raises(ProfileError, match="at least one S0 and one c"):
            scan(s0, c)


def test_scan_rows_carry_all_columns():
    res = scan([0.0], [0.0], t_max=5.0)
    row = res["rows"][0]
    assert set(row) == {"S0", "c", "class", "t_close", "S_min", "S_max"}
    assert row["t_close"] is None


def test_default_grid_shape():
    assert len(profiles.DEFAULT_S0_GRID) == 41
    assert profiles.DEFAULT_S0_GRID[0] == -4.0
    assert profiles.DEFAULT_S0_GRID[-1] == 4.0
    assert len(profiles.DEFAULT_C_GRID) == 41
    assert profiles.DEFAULT_C_GRID[0] == -2.0
    assert profiles.DEFAULT_C_GRID[-1] == 2.0


# ----------------------------------------------------------------------
# configuration and output
# ----------------------------------------------------------------------
def test_scan_from_config_forms():
    res = scan_from_config({
        "s0": {"lo": 2.0, "hi": 2.0, "count": 1},
        "c": [4.0 / 3.0],
    })
    assert res["rows"][0]["class"] == "Closed"
    res2 = scan_from_config({"s0": [0.0], "c": [0.0], "t_max": 4.0})
    assert res2["rows"][0]["class"] == "CompleteOpen"


def test_scan_from_config_validation():
    with pytest.raises(ProfileError, match="must be an object"):
        scan_from_config([1, 2])
    with pytest.raises(ProfileError, match="unknown scan fields"):
        scan_from_config({"grid": []})
    with pytest.raises(ProfileError, match="unknown s0 grid"):
        scan_from_config({"s0": {"lo": 0.0, "hi": 1.0, "n": 3}, "c": [0.0]})
    with pytest.raises(ProfileError, match="lo, hi and count"):
        scan_from_config({"s0": {"lo": 0.0, "hi": 1.0}, "c": [0.0]})
    for count in (0, 2.9, True, "3"):
        with pytest.raises(ProfileError, match=">= 1"):
            scan_from_config({"s0": {"lo": 0.0, "hi": 1.0, "count": count},
                              "c": [0.0]})


# the round cap S0 = 2, c = 4/3 closes at t = pi; unchecked, rtol = -1,
# delta = NaN and rtol = NaN would classify it CurvatureBlowUp,
# CompleteOpen and StepFailure, and the scan would still corroborate
BAD_CONTROLS = [("rtol", -1), ("delta", math.nan), ("rtol", math.nan),
                ("rtol", 1.0), ("atol", 0.0), ("eps", math.inf),
                ("s_cap", -math.inf), ("t_max", True), ("t_max", "pi")]


@pytest.mark.parametrize("field, value", BAD_CONTROLS)
def test_scan_from_config_rejects_bad_controls(field, value):
    doc = {"s0": [2.0], "c": [4.0 / 3.0], field: value}
    with pytest.raises(ProfileError, match=f"scan field '{field}' must be"):
        scan_from_config(doc)


def test_csv_output_and_determinism():
    res = scan([2.0, 0.0], [4.0 / 3.0], t_max=8.0)
    text = table_to_csv(res["rows"])
    lines = text.strip().split("\n")
    assert lines[0] == "S0,c,class,t_close,S_min,S_max"
    assert len(lines) == 3
    assert lines[1].startswith("2.0,") and ",Closed," in lines[1]
    # non-closed cells leave the closing-time column empty
    assert ",CurvatureBlowUp,," in lines[2]
    res2 = scan([2.0, 0.0], [4.0 / 3.0], t_max=8.0)
    assert table_to_csv(res2["rows"]) == text
