"""One bracketing root finder: Brent's zeroin (Brent 1973, ch. 4).

`brent` runs Brent's method step for step as ``scipy.optimize.brentq``
does: the same bracket bookkeeping, the same secant or inverse quadratic
step with the same acceptance test, the same bisection fallback and the
same stopping rule.  So it returns the same root after the same number of
evaluations; ``tests/test_roots.py`` keeps ``brentq`` as the reference.
The tolerances are fixed at xtol = rtol = 4 eps, the smallest relative
tolerance ``brentq`` accepts, and the iteration count at 100: a bracket is
refined to a few ulp or the search fails.
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["RootError", "brent"]

_TOL = 4 * math.ulp(1.0)  # xtol and rtol
_MAXITER = 100


class RootError(ArithmeticError):
    """No root: the bracket has no sign change, a value is NaN, or the
    iteration did not converge."""


def brent(f: Callable[[float], float], a: float, b: float) -> float:
    """A root of ``f`` between ``a`` and ``b``, as a Python float.

    f(a) and f(b) must differ in sign (an end where f is zero is the
    root).  Raises `RootError` when they do not, when any value is NaN, or
    after 100 iterations without convergence.
    """
    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise RootError(f"the function is NaN at x={x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if not (fpre < 0.0 < fcur or fcur < 0.0 < fpre):
        raise RootError(f"no sign change between {xpre!r} and {xcur!r}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre < 0.0 < fcur or fcur < 0.0 < fpre:
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_TOL + _TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # in IEEE arithmetic the step is then inf or NaN, which
                # the test below rejects in favour of bisection
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RootError(f"no convergence after {_MAXITER} iterations "
                    f"(last x={xcur!r})")
