"""Polar standard form of the perturbed piecewise-linear center.

With x = r cos(theta), y = r sin(theta) and theta taken as the new time,
the system becomes dr/dtheta = sum_i eps^i F_i(r, theta) on each side of the
switching set.  The F_i are obtained from the radial/angular components
(A_i, B_i) by truncated power-series division of (sum eps^i A_i) by
(-1 + sum eps^i B_i); only F_1 has a hand-written closed form, which the
division reproduces term by term:

    F_i = -A_i + sum_{m<i} F_m * B_{i-m}.

All evaluators accept floats, numpy arrays, or :class:`Jet` objects for the
radius and angle arguments, so the same code path yields values, r-derivative
jets, and t-derivative jets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import SystemConfig
from .errors import DomainError
from .series import Jet, _sincos, jet_sincos

__all__ = ["PolarField", "cartesian_field", "endpoint_triangles"]


def _radial(coeffs, r, s, c):
    (p0, p1, p2), (q0, q1, q2) = coeffs
    return c * (p0 + r * (p2 + q1) * s) + p1 * r * c * c + s * (q0 + q2 * r * s)


def _angular(coeffs, r, s, c):
    (p0, p1, p2), (q0, q1, q2) = coeffs
    num = -s * (p0 + p2 * r * s) + c * (r * (q2 - p1) * s + q0) + q1 * r * c * c
    return num / r


def _divide(A: list, B: list) -> list:
    """F_1..F_len(A) from A_i and B_i: F_i = -A_i + sum_{m<i} F_m * B_{i-m}."""
    F: list = []
    for i in range(1, len(A) + 1):
        acc = -A[i - 1]
        for m in range(1, i):
            acc = acc + F[m - 1] * B[i - m - 1]
        F.append(acc)
    return F


@dataclass(frozen=True)
class PolarField:
    """Evaluators of the standard-form right-hand sides F_i^(+/-)(r, theta)."""

    config: SystemConfig

    @property
    def k(self) -> int:
        return self.config.k

    def _side(self, sign: int, i: int):
        oc = self.config.order(i)
        if sign > 0:
            return oc.a, oc.b
        return oc.alpha, oc.beta

    def radial_component(self, i: int, sign: int, r, theta):
        """A_i(r, theta) on the given side (+1 above the curve, -1 below)."""
        return _radial(self._side(sign, i), r, *_sincos(theta))

    def angular_component(self, i: int, sign: int, r, theta):
        """B_i(r, theta) on the given side; carries the 1/r factor."""
        return _angular(self._side(sign, i), r, *_sincos(theta))

    def f_all(self, sign: int, r, theta, upto: int | None = None) -> list:
        """[F_1, ..., F_upto] at (r, theta) by truncated series division.

        ``upto`` defaults to k; F_i reads A_i and B_1..B_{i-1} only, so no
        component of a higher order is evaluated.
        """
        upto = self.k if upto is None else upto
        s, c = _sincos(theta)
        A = [_radial(self._side(sign, i), r, s, c) for i in range(1, upto + 1)]
        B = [_angular(self._side(sign, i), r, s, c) for i in range(1, upto)]
        return _divide(A, B)

    def f(self, i: int, sign: int, r, theta):
        """F_i(r, theta) on the given side."""
        if not 1 <= i <= self.k:
            raise DomainError(f"order {i} outside 1..{self.k}")
        return self.f_all(sign, r, theta, upto=i)[i - 1]

    def f_r_jets(self, sign: int, r: float, theta, order: int) -> list[Jet]:
        """[F_1, ..., F_{order+1}] (at most k) as jets in r of the given order.

        Coefficients follow theta's type.  An r-jet of order ``order`` feeds
        the sector integrands of orders up to order+1, which read no higher F_i.
        """
        rj = Jet.variable(float(r), order)
        return self.f_all(sign, rj, theta, min(order + 1, self.k))

    def f_nested_jets(self, sign: int, triangles: list[tuple]) -> list[Jet]:
        """[F_1, ..., F_{degree+1}] (at most k) as r-jets whose coefficients are t-jets.

        ``triangles`` is ``endpoint_triangles(r, t0, degree)``.  Entry i keeps
        total degree ``degree + 1 - i``: its coefficient L, times L!, is the
        t-jet of the L-th state derivative of F_i at (r, t0), truncated at
        t-order ``degree + 1 - i - L``.  A_i is evaluated on triangles cut to
        that degree and B_i on triangles one degree lower, so the division
        yields each F_i exactly to its degree, every coefficient bit for bit
        as in an untruncated expansion.
        """
        degree = len(triangles) - 1
        upto = min(degree + 1, self.k)
        A = [_radial(self._side(sign, i), *triangles[degree + 1 - i]) for i in range(1, upto + 1)]
        B = [_angular(self._side(sign, i), *triangles[degree - i]) for i in range(1, upto)]
        return _divide(A, B)


def endpoint_triangles(r: float, t0: float, degree: int) -> list[tuple[Jet, Jet, Jet]]:
    """(r, sin t, cos t) at (r, t0) as r-jets of t-jets, cut to each total degree.

    Entry d holds the three nested jets truncated to total degree d, for
    d = 0..degree; they depend on the point only, not on the field's side.
    """
    def triangle(lead, first):
        return Jet([lead] + [Jet.constant(first if L == 1 else 0.0, degree - L)
                             for L in range(1, degree + 1)])

    rsc = (triangle(Jet.constant(float(r), degree), 1.0),
           *jet_sincos(triangle(Jet.variable(float(t0), degree), 0.0)))
    return [tuple(Jet([cm.truncate(d - L) for L, cm in enumerate(v.c[:d + 1])]) for v in rsc)
            for d in range(degree + 1)]


def cartesian_field(config: SystemConfig, x: float, y: float, eps: float):
    """Right-hand side of the planar system at (x, y) off the switching curve.

    Raises :class:`DomainError` on the curve itself; event logic owns that set.
    """
    h = y - x ** config.n
    if h == 0.0:
        raise DomainError("point lies on the switching curve; use event logic")
    dx = y
    dy = -x
    for i in range(1, config.k + 1):
        oc = config.order(i)
        if h > 0.0:
            (p0, p1, p2), (q0, q1, q2) = oc.a, oc.b
        else:
            (p0, p1, p2), (q0, q1, q2) = oc.alpha, oc.beta
        w = eps ** i
        dx += w * (p0 + p1 * x + p2 * y)
        dy += w * (q0 + q1 * x + q2 * y)
    return dx, dy
