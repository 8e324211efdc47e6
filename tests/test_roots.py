"""Brent's root finder against scipy's ``brentq``, and its failures."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from bachlab import solitons
from bachlab.cli import main
from bachlab.roots import RootError, brent

_TOL = 4 * np.finfo(float).eps  # the tolerances `brent` fixes

# smooth, flat, stepped, tiny, huge, singular and many-rooted functions
_BATTERY = {
    "cubic": lambda x: x ** 3 - 2 * x - 5,
    "cos": lambda x: math.cos(x) - x,
    "tiny": lambda x: 1e-200 * (x - 0.3),
    "huge": lambda x: 1e200 * (x - 0.3),
    "flat": lambda x: (x - 0.7) ** 7,
    "step": lambda x: -1.0 if x < 0.4142 else 1.0,
    "sin": lambda x: math.sin(3 * x),
    "atan": lambda x: math.atan(50 * (x - 0.123)),
    "pole": lambda x: 1.0 / (x - 0.25) if x != 0.25 else math.inf,
    "wilkinson": lambda x: math.prod(x - k / 7 for k in range(1, 8)),
}


def _brackets():
    rng = np.random.default_rng(1)
    out = [(-1.0, 1.5), (1.5, -1.0), (0.0, 1.0), (2.0, 3.0)]
    for k in range(30):
        a, b = sorted(rng.uniform(-1.0, 1.5, 2))
        out.append((a, b) if k % 2 else (b, a))
    return out


def _counted(f):
    def g(x):
        g.calls += 1
        return f(x)
    g.calls = 0
    return g


@pytest.mark.parametrize("name", sorted(_BATTERY))
def test_brent_runs_as_brentq(name):
    f = _BATTERY[name]
    converged = 0
    for a, b in _brackets():
        ref_f, our_f = _counted(f), _counted(f)
        try:
            ref = brentq(ref_f, a, b, xtol=_TOL, rtol=_TOL)
        except (ValueError, RuntimeError):
            ref = None  # no sign change, or no convergence
        if ref is None:
            with pytest.raises(RootError):
                brent(our_f, a, b)
            continue
        root = brent(our_f, a, b)
        assert type(root) is float
        assert root.hex() == ref.hex(), (a, b)
        assert our_f.calls == ref_f.calls, (a, b)
        converged += 1
    # "flat" never converges: its brackets all end in RootError
    assert (converged > 0) == (name != "flat")


def test_brent_returns_a_python_float():
    root = brent(lambda x: np.float64(x) - np.float64(0.5),
                 np.float64(0.0), np.float64(2.0))
    assert type(root) is float and root == 0.5
    assert type(brent(lambda x: x, np.float64(0.0), 1.0)) is float


def test_brent_fails_closed():
    with pytest.raises(RootError, match="no sign change"):
        brent(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(RootError, match="NaN"):
        brent(lambda x: math.nan if 0.1 < x < 0.9 else x - 0.5, 0.0, 1.0)
    with pytest.raises(RootError, match="NaN"):
        brent(lambda x: math.nan, 0.0, 1.0)
    with pytest.raises(RootError, match="no convergence"):
        brent(_BATTERY["flat"], 0.0, 1.5)
    # a typed numerical failure, not a bad-input ValueError
    assert not issubclass(RootError, ValueError)


def test_solve_berger_nan_inside_a_bracket_exits_numerical(monkeypatch,
                                                           capsys):
    # finite on the scan grid, so the scan brackets the roots, and NaN
    # between its nodes, where Brent's method evaluates
    grid = set(np.linspace(0.2, 1.6, 121).tolist())
    condition = solitons.berger_condition_scalar
    monkeypatch.setattr(solitons, "berger_condition_scalar",
                        lambda a: condition(a) if a in grid else math.nan)
    assert main(["solve", "berger", "--interval", "0.2,1.6"]) == 3
    assert "NaN" in capsys.readouterr().err

