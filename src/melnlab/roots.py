"""Brent's bracketing root finder (Brent 1973, ch. 4).

``brentq`` is a line-for-line port of SciPy's C ``brentq``, with its argument
checks and errors, so a root agrees with SciPy's to the last bit without
loading SciPy's optimize package, which costs about 0.2 s of CPU time and 22 MB
of resident memory at start-up.  ``brentq_rows`` runs its iteration on many
brackets at once, one call of ``f`` per iteration, each row bit for bit.
"""

from __future__ import annotations

import math
import operator
import sys

import numpy as np

__all__ = ["brentq", "brentq_rows"]

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
                denom = dblk * dpre * (fblk - fpre)
                # an underflowed denominator gives C an inf or NaN step, so bisection
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
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


def brentq_rows(f, a: np.ndarray, b: np.ndarray, *, xtol, rtol: float = RTOL,
                maxiter: int = MAXITER):
    """``brentq`` on the brackets ``[a[i], b[i]]``: one call of ``f`` on the ends
    (all ``a``, then all ``b``), then one per iteration on the rows still
    running, each with ``brentq``'s IEEE operations in its order, so its root
    is ``brentq``'s bit for bit; ``xtol`` may differ per row.  Returns ``(x,
    failed)``, x NaN where ``brentq`` raises ValueError (``failed``) or where
    ``f`` returned None, which stops the rows still running.  Raises
    RuntimeError when a row is not done after ``maxiter`` iterations."""
    k = len(a)
    ends = f(np.concatenate([a, b])) if k else None
    if ends is None:
        return np.full(k, np.nan), np.zeros(k, dtype=bool)
    fa, fb = ends[:k], ends[k:]
    failed = np.isnan(fa) | np.isnan(fb) | ((fa != 0) & (fb != 0)
                                            & (np.signbit(fa) == np.signbit(fb)))
    x = np.where(fa == 0, a, np.where(fb == 0, b, np.nan))
    idx = np.flatnonzero(np.isnan(x) & ~failed)
    xpre, xcur, fpre, fcur, tol = a[idx], b[idx], fa[idx], fb[idx], np.broadcast_to(xtol, k)[idx]
    xblk = fblk = spre = scur = np.zeros(len(idx))
    for _ in range(maxiter):
        with np.errstate(all="ignore"):
            # fpre != 0 on a running row, and a row with fcur == 0 is done below
            new, d = np.signbit(fpre) != np.signbit(fcur), xcur - xpre
            xblk, fblk, spre, scur = np.where(new, (xpre, fpre, d, d), (xblk, fblk, spre, scur))
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk, fpre, fcur, fblk = np.where(
                swap, (xcur, xblk, xcur, fcur, fblk, fcur), (xpre, xcur, xblk, fpre, fcur, fblk))
            delta, sbis = (tol + rtol * np.abs(xcur)) / 2, (xblk - xcur) / 2
            abis, aspre, nfcur = np.abs(sbis), np.abs(spre), -fcur
            # a NaN row (failed where f gave it) leaves here, and its x is reset below
            done = (fcur == 0) | (abis < delta) | np.isnan(fcur)
            x[idx[done]] = xcur[done]
            dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
            stry = np.where(xpre == xblk, nfcur * (xcur - xpre) / (fcur - fpre),
                            nfcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))
            bound = 3 * abis - delta
            good = ((aspre > delta) & (np.abs(fcur) < np.abs(fpre))
                    & (2 * np.abs(stry) < np.where(aspre < bound, aspre, bound)))
            spre, scur = np.where(good, (scur, stry), (sbis, sbis))
            # sbis is never 0 on a row that is not done
            step = np.where(np.abs(scur) > delta, scur, np.copysign(delta, sbis))
        idx, xpre, fpre, xcur, xblk, fblk, spre, scur, tol = (
            v[~done] for v in (idx, xcur, fcur, xcur + step, xblk, fblk, spre, scur, tol))
        fcur = f(xcur) if len(idx) else None
        if fcur is None:
            break
        failed[idx[np.isnan(fcur)]] = True
    else:
        if not failed[idx].all():
            raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
    x[failed] = np.nan
    return x, failed
