"""Switching geometry of the curve y = x^n in polar-time coordinates.

The curve y = x^n meets the circle of radius r at the abscissa x solving
x^2 + x^(2n) = r^2; the first-quadrant crossing angle satisfies
tan(theta1) = x^(n-1), equivalently sin(theta) - r^(n-1) cos(theta)^n = 0.
The second crossing sits at theta2 = pi - (-1)^n * theta1 (third quadrant
for odd n, second quadrant for even n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .roots import brentq
from .series import Jet, jet_sincos

__all__ = ["R_MIN", "SwitchingGeometry", "crossing_abscissa", "switching_angles",
           "switching_function", "theta1_jet"]

# theta is undefined at the origin; keep a safe margin
R_MIN = 1e-6

TWO_PI = 2.0 * math.pi


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
    theta1, _ = switching_angles(r, n)
    if n == 1:
        return Jet.constant(theta1, order)
    rj = Jet.variable(float(r), order)
    th = Jet.constant(theta1, order)
    rpow = rj ** (n - 1)
    # jet-Newton on g(theta, r) = sin(theta) - r^(n-1) cos(theta)^n
    for _ in range(max(1, order)):
        s, c = jet_sincos(th)
        g = s - rpow * c ** n
        gt = c + n * rpow * c ** (n - 1) * s
        th = th - g / gt
    return th


@dataclass(frozen=True)
class SwitchingGeometry:
    """Sector bookkeeping for one switching degree.

    Sector j=0 is (0, theta1) with field label '-', j=1 is (theta1, theta2)
    with '+', j=2 is (theta2, 2*pi) with '-'.  Angles are never wrapped
    mid-computation; theta2 > pi always.
    """

    n: int

    SECTOR_SIGNS = (-1, +1, -1)

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise DomainError(f"switching degree must be a positive integer, got {self.n!r}")

    def angles(self, r: float) -> tuple[float, float]:
        return switching_angles(r, self.n)

    def boundaries(self, r: float) -> tuple[float, float, float, float]:
        """(theta_0, theta_1, theta_2, theta_3) = (0, theta1, theta2, 2*pi)."""
        theta1, theta2 = self.angles(r)
        return 0.0, theta1, theta2, TWO_PI

    def theta_jets(self, r: float, order: int) -> tuple[Jet, Jet]:
        """r-jets of both switching angles, from one Newton solve for theta1."""
        t1 = theta1_jet(r, self.n, order)
        return t1, math.pi - (-1.0) ** self.n * t1

    def sector_sign(self, j: int) -> int:
        """Field label of sector j: -1 below the curve, +1 above."""
        return self.SECTOR_SIGNS[j]

    def sector_of(self, theta: float, r: float) -> int:
        theta1, theta2 = self.angles(r)
        t = theta % TWO_PI
        if t < theta1:
            return 0
        if t < theta2:
            return 1
        return 2
