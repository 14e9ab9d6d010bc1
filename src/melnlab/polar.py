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

import math

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


def _affine_r_jets(expr, sides, rvar: list, s, c, orders: list[int]) -> list[Jet]:
    """r-jets of ``_radial`` or ``_angular_num``, both affine in r, of the
    stacked ``sides``: jet i of r-order orders[i], which does not grow with i.
    Coefficient m is the expression at the r-variable's coefficient rvar[m]
    (r, 1, 0), with the constant terms in coefficient 0 only, as jet
    arithmetic computes it, evaluated once on the sides whose r-order reaches
    m.  Coefficients from 2 on are one read-only value."""
    terms = []
    for m, rm in enumerate(rvar):
        count = sum(d >= m for d in orders)
        if count:
            terms.append(expr(tuple(tuple(x[:count] for x in half) for half in sides),
                              rm, s, c, m == 0))
    if len(terms) > 2:
        terms[2].flags.writeable = False
    rows = [[t[i] for t in terms[:d + 1]] for i, d in enumerate(orders)]
    return [Jet._of(row + row[2:] * (d - 2)) for row, d in zip(rows, orders)]


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

    def _side(self, sign: int, i: int):
        oc = self.config.order(i)
        if sign > 0:
            return oc.a, oc.b
        return oc.alpha, oc.beta

    def _sides(self, sign, upto: int, ndim: int):
        """((p0, p1, p2), (q0, q1, q2)) of orders 1..upto on the side of ``sign``
        per entry, each stacked over the orders on an axis ahead of ``ndim`` axes."""
        both = np.array([[oc.a + oc.b, oc.alpha + oc.beta] for oc in self.config.orders[:upto]])
        both = both.transpose(1, 2, 0).reshape((2, 6, upto) + (1,) * ndim)
        pick = np.where(sign > 0, both[0], both[1])
        return tuple(pick[:3]), tuple(pick[3:])

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

        Coefficients are numpy values in the broadcast shape of ``sign``, ``r``
        and theta.  The sector integrand of order i reads the r-derivatives of F_q
        up to order i - q <= order + 1 - q, and no F_q with q > order + 1;
        each coefficient has the bits it has in ``f_all`` on a longer r-jet.
        The sides of all orders are picked at once; A_i and r B_i are evaluated
        once per r-coefficient, on the orders that reach it.
        """
        s, c = _sincos(theta)
        rvar = Jet.variable(r, 2).c
        upto = min(order + 1, self.k)
        sides = self._sides(sign, upto, max(np.ndim(sign), np.ndim(r), np.ndim(theta)))
        A = _affine_r_jets(_radial, sides, rvar, s, c, [order + 1 - i for i in range(1, upto + 1)])
        B = [b / Jet.variable(r, b.order) for b in
             _affine_r_jets(_angular_num, sides, rvar, s, c, [order - i for i in range(1, upto)])]
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


def _negative_so_far(row: list, before: list) -> list:
    """Entry p: before[p] holds and entries 0..p of ``row`` (floats, or
    arrays of them) all have the sign bit."""
    out, acc = [], True
    for x, b in zip(row, before):
        acc = acc & (np.signbit(x) if isinstance(x, np.ndarray) else math.copysign(1.0, x) < 0.0)
        out.append(b & acc)
    return out


def endpoint_triangles(r, t0, degree: int) -> list[tuple[TriangleJet, TriangleJet, TriangleJet]]:
    """(r, sin t, cos t) at (r, t0) as (r, t)-jets, cut to each total degree.

    Entry d holds the three triangles of total degree d, for d = 0..degree;
    they depend on the point only, not on the field's side.  ``r`` and ``t0``
    are floats, or arrays over several endpoints.  Row L of a triangle holds
    its t-coefficients of r-order L.  Rows 0 of sin and cos are their t-jets
    at t0, the other rows the zeros of ``jet_sincos`` on the r-jet (t, 0, ...)
    of t-jets.  Each is a sum of +0.0 times coefficients, -0.0 only if every
    term is, so entry p of sin row m is -0.0 iff entries 0..p of cos rows
    0..m-1 are all negative, and of cos row m +0.0 iff those of sin are.
    """
    r_rows = [Jet.constant(r, degree).c] + [[1.0 if L == 1 else 0.0] + [0.0] * (degree - L)
                                           for L in range(1, degree + 1)]
    sin_rows, cos_rows = ([v.c] for v in jet_sincos(Jet.variable(t0, degree)))
    sin_neg = cos_neg = [True] * (degree + 1)
    for m in range(degree):
        sin_neg = _negative_so_far(sin_rows[m], sin_neg)
        cos_neg = _negative_so_far(cos_rows[m], cos_neg)
        # +0.0 times a value of the sign wanted, as the recurrence makes them
        sin_rows.append([0.0 * (0.5 - neg) for neg in cos_neg[:degree - m]])
        cos_rows.append([0.0 * (neg - 0.5) for neg in sin_neg[:degree - m]])
    return [tuple(TriangleJet._of([x for L in range(d + 1) for x in rows[L][:d + 1 - L]], d)
                  for rows in (r_rows, sin_rows, cos_rows)) for d in range(degree + 1)]


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
