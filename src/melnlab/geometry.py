"""Switching geometry of the curve y = x^n in polar-time coordinates.

The curve y = x^n meets the circle of radius r at the abscissa x solving
x^2 + x^(2n) = r^2; the first-quadrant crossing angle satisfies
tan(theta1) = x^(n-1), equivalently sin(theta) - r^(n-1) cos(theta)^n = 0.
The second crossing sits at theta2 = pi - (-1)^n * theta1 (third quadrant
for odd n, second quadrant for even n).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .roots import brentq
from .series import Jet, jet_sincos

__all__ = ["R_MIN", "SECTOR_SIGNS", "crossing_abscissa", "switching_angles",
           "switching_function", "theta1_jet"]

# theta is undefined at the origin; keep a safe margin
R_MIN = 1e-6

TWO_PI = 2.0 * math.pi

# Field label of sector j along a circle: j=0 is (0, theta1) below the curve,
# j=1 is (theta1, theta2) above it, j=2 is (theta2, 2*pi) below it again.
# Angles are never wrapped mid-computation; theta2 > pi always.
SECTOR_SIGNS = (-1, +1, -1)


def _check_radius(r: float) -> float:
    r = float(r)
    if not math.isfinite(r) or r <= 0.0:
        raise DomainError(f"radius must be positive, got {r!r}")
    if r < R_MIN:
        raise DomainError(f"radius {r} below admissible minimum {R_MIN}")
    return r


def crossing_abscissa(r: float, n: int) -> float:
    """Positive solution x of x^2 + x^(2n) = r^2, refined to ~1e-15 relative."""
    r = _check_radius(r)
    if n == 1:
        return r / math.sqrt(2.0)

    def f(x):
        return x * x + x ** (2 * n) - r * r

    hi = min(r, r ** (1.0 / n))
    x = brentq(f, 0.0, hi, xtol=1e-30, rtol=8.9e-16, maxiter=200)
    for _ in range(2):  # Newton polish
        fx = x * x + x ** (2 * n) - r * r
        dfx = 2.0 * x + 2 * n * x ** (2 * n - 1)
        if dfx != 0.0:
            x -= fx / dfx
    return x


def switching_angles(r: float, n: int) -> tuple[float, float]:
    """Crossing angles (theta1, theta2) of the radius-r circle with y = x^n."""
    r = _check_radius(r)
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"switching degree must be a positive integer, got {n!r}")
    if n == 1:
        theta1 = 0.25 * math.pi
    else:
        x = crossing_abscissa(r, n)
        theta1 = math.atan(x ** (n - 1))
    theta2 = math.pi - (-1.0) ** n * theta1
    return theta1, theta2


def switching_function(r, theta, n: int):
    """sin(theta) - r^(n-1) * cos(theta)^n; same sign as y - x^n off the origin."""
    return np.sin(theta) - r ** (n - 1) * np.cos(theta) ** n


def theta1_jet(r: float, n: int, order: int) -> Jet:
    """Taylor jet of theta1 as a function of the radius, at base point r."""
    if order < 0:
        raise DomainError("jet order must be >= 0")
    return _theta1_newton(float(r), switching_angles(r, n)[0], n, order)


def _theta1_newton(r, theta1, n: int, order: int) -> Jet:
    """``theta1_jet`` from the crossing angle ``theta1`` at ``r``; both may be arrays
    over points, each getting its float jet's bits (the Newton steps are elementwise)."""
    if n == 1:
        return Jet.constant(theta1, order)
    rj = Jet.variable(r, order)
    th = Jet.constant(theta1, order)
    rpow = rj ** (n - 1)
    # jet-Newton on g(theta, r) = sin(theta) - r^(n-1) cos(theta)^n
    for _ in range(max(1, order)):
        s, c = jet_sincos(th)
        g = s - rpow * c ** n
        gt = c + n * rpow * c ** (n - 1) * s
        th = th - g / gt
    return th
