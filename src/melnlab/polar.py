"""Polar standard form of the perturbed piecewise-linear center.

With x = r cos(theta), y = r sin(theta) and theta taken as the new time,
the system becomes dr/dtheta = sum_i eps^i F_i(r, theta) on each side of the
switching set.  The F_i are obtained from the radial/angular components
(A_i, B_i) by truncated power-series division of (sum eps^i A_i) by
(-1 + sum eps^i B_i); only F_1 has a hand-written closed form, which the
division reproduces term by term:

    F_i = -A_i + sum_{m<i} F_m * B_{i-m}.

All evaluators accept floats, numpy arrays, :class:`Jet` or
:class:`TriangleJet` objects for the radius and angle arguments, so the same
code path yields values, r-derivative jets, and mixed (r, t)-jets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .errors import DomainError
from .series import Jet, TriangleJet, _sincos, jet_sincos

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

    def _side(self, sign, i: int):
        oc = self.config.order(i)
        if isinstance(sign, np.ndarray):
            up = sign > 0
            return tuple(tuple(np.where(up, u, d) for u, d in zip(above, below))
                         for above, below in ((oc.a, oc.alpha), (oc.b, oc.beta)))
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

    def f_r_jets(self, sign, r, theta, order: int) -> list[Jet]:
        """[F_1, ..., F_{order+1}] (at most k) as jets in r, F_i of order order+1-i.

        Coefficients follow theta's type; ``sign`` and ``r`` may be arrays
        broadcast against theta.  The sector integrand of order i reads the
        r-derivatives of F_q up to order i - q <= order + 1 - q, and no
        F_q with q > order + 1; each coefficient has the bits it has in
        ``f_all`` on a longer r-jet.
        """
        s, c = _sincos(theta)
        return self._triangle_f(sign, [(Jet.variable(r, d), s, c) for d in range(order + 1)])

    def f_nested_jets(self, sign: int, triangles: list[tuple]) -> list[TriangleJet]:
        """[F_1, ..., F_{degree+1}] (at most k) as (r, t)-jets, F_i of total degree degree+1-i.

        ``triangles`` is ``endpoint_triangles(r, t0, degree)``.  Coefficient
        (L, p) of F_i, times L!, is the p-th t-coefficient of the L-th state
        derivative of F_i at (r, t0), every one bit for bit as in an
        untruncated nested expansion.
        """
        return self._triangle_f(sign, triangles)

    def _triangle_f(self, sign, triangles: list[tuple]) -> list:
        """F_1..F_{degree+1} (at most k) from the arguments (r, sin, cos) cut to
        each degree 0..degree: A_i is evaluated at degree ``degree + 1 - i`` and
        B_i one degree lower, so the division yields F_i exactly to its degree."""
        degree = len(triangles) - 1
        upto = min(degree + 1, self.k)
        A = [_radial(self._side(sign, i), *triangles[degree + 1 - i]) for i in range(1, upto + 1)]
        B = [_angular(self._side(sign, i), *triangles[degree - i]) for i in range(1, upto)]
        return _divide(A, B)


def endpoint_triangles(r, t0, degree: int) -> list[tuple[TriangleJet, TriangleJet, TriangleJet]]:
    """(r, sin t, cos t) at (r, t0) as (r, t)-jets, cut to each total degree.

    Entry d holds the three triangles of total degree d, for d = 0..degree;
    they depend on the point only, not on the field's side.  They are
    computed once as r-jets of t-jets and flattened.  ``r`` and ``t0`` are
    floats, or arrays over several endpoints.
    """
    def triangle(lead, first):
        return Jet([lead] + [Jet.constant(first if L == 1 else 0.0, degree - L)
                             for L in range(1, degree + 1)])

    rsc = (triangle(Jet.constant(r, degree), 1.0),
           *jet_sincos(triangle(Jet.variable(t0, degree), 0.0)))
    return [tuple(TriangleJet.of_nested(v.truncate(d)) for v in rsc) for d in range(degree + 1)]


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
