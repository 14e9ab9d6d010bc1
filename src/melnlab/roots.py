"""Brent's bracketing root finder (Brent 1973, ch. 4).

A line-for-line port of SciPy's C ``brentq``, with its argument checks and
errors, so a root agrees with SciPy's to the last bit without loading SciPy's
optimize package, which costs about 0.2 s of CPU time and 22 MB of resident
memory at start-up.
"""

from __future__ import annotations

import math
import operator
import sys

__all__ = ["brentq"]

RTOL = 4 * sys.float_info.epsilon     # the smallest rtol allowed
MAXITER = 100


def _signbit(v: float) -> bool:
    return math.copysign(1.0, v) < 0.0


def brentq(f, a: float, b: float, *, xtol: float, rtol: float = RTOL,
           maxiter: int = MAXITER) -> float:
    """Zero of ``f`` in ``[a, b]``, where ``f(a)`` and ``f(b)`` differ in sign.

    The result lies within ``xtol + rtol * |x|`` of a sign change of ``f``.
    Raises ValueError for ``xtol <= 0``, ``rtol < 4 eps``, ``maxiter < 0``,
    ends of equal sign or a NaN value of ``f``, and RuntimeError when
    ``maxiter`` iterations do not converge.
    """
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    def fx(x: float) -> float:
        v = float(f(x))
        if math.isnan(v):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return v

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = fx(xpre)
    fcur = fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:       # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre = scur        # good short step
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
