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
code path yields values, r-derivative jets, and mixed (r, t)-jets.  The
recursion's r-jets take a shorter path with the same operations: A_i and
r B_i are affine in r, so they are evaluated at the r-variable's
coefficients only (``f_r_jets``).
"""

from __future__ import annotations

import numpy as np

from .config import SystemConfig
from .errors import DomainError
from .series import Jet, TriangleJet, _sincos, jet_sincos

__all__ = ["PolarField", "cartesian_field", "endpoint_triangles"]


def _radial(coeffs, r, s, c, const: bool = True):
    """A_i; without the constant terms p0, q0 when ``const`` is false."""
    (p0, p1, p2), (q0, q1, q2) = coeffs
    u, v = r * (p2 + q1) * s, q2 * r * s
    if const:
        u, v = p0 + u, q0 + v
    return c * u + p1 * r * c * c + s * v


def _angular_num(coeffs, r, s, c, const: bool = True):
    """r B_i; without the constant terms p0, q0 when ``const`` is false."""
    (p0, p1, p2), (q0, q1, q2) = coeffs
    u, v = p2 * r * s, r * (q2 - p1) * s
    if const:
        u, v = p0 + u, v + q0
    return -s * u + c * v + q1 * r * c * c


def _angular(coeffs, r, s, c):
    return _angular_num(coeffs, r, s, c) / r


def _affine_r_jet(expr, coeffs, rvar: list, s, c, d: int) -> Jet:
    """Order-d r-jet of ``_radial`` or ``_angular_num``, both affine in r:
    coefficient m is the expression at the r-variable's coefficient rvar[m]
    (r, 1, 0), with the constant terms in coefficient 0 only, as jet
    arithmetic computes it.  Coefficients from 2 on are one read-only value."""
    terms = [expr(coeffs, rm, s, c, m == 0) for m, rm in enumerate(rvar[:d + 1])]
    if d >= 2:
        if isinstance(terms[2], np.ndarray):
            terms[2].flags.writeable = False
        terms += terms[2:] * (d - 2)
    return Jet._of(terms)


def _divide(A: list, B: list) -> list:
    """F_1..F_len(A) from A_i and B_i: F_i = -A_i + sum_{m<i} F_m * B_{i-m}."""
    F: list = []
    for i in range(1, len(A) + 1):
        acc = -A[i - 1]
        for m in range(1, i):
            acc = acc + F[m - 1] * B[i - m - 1]
        F.append(acc)
    return F


class PolarField:
    """Evaluators of the standard-form right-hand sides F_i^(+/-)(r, theta)."""

    __slots__ = ("config",)

    def __init__(self, config: SystemConfig):
        self.config = config

    @property
    def k(self) -> int:
        return self.config.k

    def _side(self, sign, i: int):
        oc = self.config.order(i)
        if isinstance(sign, np.ndarray):
            sides = np.array((oc.a + oc.b, oc.alpha + oc.beta)).reshape((2, 6) + (1,) * sign.ndim)
            pick = np.where(sign > 0, sides[0], sides[1])
            return tuple(pick[:3]), tuple(pick[3:])
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
        rvar = Jet.variable(r, 2).c
        upto = min(order + 1, self.k)
        sides = [self._side(sign, i) for i in range(1, upto + 1)]
        A = [_affine_r_jet(_radial, sides[i - 1], rvar, s, c, order + 1 - i)
             for i in range(1, upto + 1)]
        B = [_affine_r_jet(_angular_num, sides[i - 1], rvar, s, c, order - i)
             / Jet.variable(r, order - i) for i in range(1, upto)]
        return _divide(A, B)

    def f_nested_jets(self, sign: int, triangles: list[tuple]) -> list[TriangleJet]:
        """[F_1, ..., F_{degree+1}] (at most k) as (r, t)-jets, F_i of total degree degree+1-i.

        ``triangles`` is ``endpoint_triangles(r, t0, degree)``.  Coefficient
        (L, p) of F_i, times L!, is the p-th t-coefficient of the L-th state
        derivative of F_i at (r, t0), every one bit for bit as in an
        untruncated nested expansion.  A_i is evaluated at degree
        ``degree + 1 - i`` and B_i one degree lower, so the division yields F_i
        exactly to its degree.
        """
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
