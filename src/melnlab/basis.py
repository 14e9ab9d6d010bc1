"""The ordered function families used for zero counting on (0, infinity).

Twenty-four generators u_1..u_24 (the last carrying an extra real parameter)
combine into the ordered sets F_1..F_7 plus the auxiliary families used in
the certification proofs (prefix family G, the pencil family H_{alpha,beta},
the quintic-derivative set J_0, and the eighth-derivative set H8).

Every function evaluates generically: floats, numpy arrays, or jets, with
fractional powers taken on the real-positive branch (domain x > 0).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError
from .series import Jet, _atan

__all__ = ["BasisFunction", "u", "family", "family_G", "family_H_pencil",
           "family_J0", "family_H8"]


def _pow(x, num: int, den: int = 1):
    """x**(num/den) on the positive branch, generic over floats, arrays, jets.

    A whole exponent stays an int; any other is the correctly rounded double
    of num/den."""
    e = num // den if num % den == 0 else num / den
    if isinstance(x, Jet):
        return x ** e if isinstance(e, int) else x.power(e)
    return x ** e


def _one(x):
    if isinstance(x, Jet):
        return Jet.constant(1.0, x.order)
    if isinstance(x, np.ndarray):
        return np.ones_like(np.asarray(x, dtype=float))
    return x * 0 + 1.0


def jet_derivative(jet: Jet, m: int) -> Jet:
    """Jet of the m-th derivative, shifted down from a jet of order >= m."""
    if m == 0:
        return jet
    if jet.order < m:
        raise DomainError(f"jet order {jet.order} too small for derivative {m}")
    coeffs = [jet.c[p + m] * (math.factorial(p + m) / math.factorial(p))
              for p in range(jet.order - m + 1)]
    return Jet(coeffs)


# u1..u11 are pure powers of x: u_ident^k = x^(a k + b) for (a, b) = _POWERS[ident]
_POWERS = {1: (0, 0), 2: (0, 1), 3: (2, -2), 4: (2, 0), 5: (2, 1), 6: (4, -2),
           7: (4, 0), 8: (4, 1), 9: (6, -2), 10: (6, 0), 11: (6, 1)}


def _exponent(ident: int, k: int) -> int | None:
    """p with u_ident^k = x^p, or None for a generator that is no pure power."""
    if ident not in _POWERS:
        return None
    a, b = _POWERS[ident]
    return a * k + b


def _u_expr(ident: int, k: int, lam: float | None, x):
    """Evaluate generator ``ident`` at x (float, array, or jet)."""
    K = k
    if ident == 1:
        return _one(x)
    if ident == 2:
        return x
    if ident in _POWERS:
        return _pow(x, _exponent(ident, K))
    if ident == 12:
        return x * (1.0 + _pow(x, 4 * K))
    if ident == 13:
        return _pow(x, 4 * K) + x * x
    if ident == 14:
        return x + (2 * K + 1) * _pow(x, 8 * K + 1)
    if ident == 15:
        return (_pow(x, 4 * K) + x * x) * _atan(_pow(x, 2 * K - 1))
    if ident == 16:
        return (_pow(x, 4 * K - 2) + 1.0) * (2 * K * _pow(x, 4 * K - 1) + x)
    if ident == 17:
        return ((_pow(x, 4 * K - 2) + 1.0) * (2 * K * _pow(x, 4 * K - 1) + x)
                * _atan(_pow(x, 2 * K - 1)))
    if ident == 18:
        return _pow(x, 1, K) * ((2 * K + 1) * x * x + 1.0) ** 3
    if ident == 19:
        return -(_pow(x, 1, K) * ((2 * K + 1) * x ** 3 + x) ** 2)
    if ident == 20:
        return -(_pow(x, 3 * K + 1, K) * ((2 * K + 1) * x * x + 1.0) ** 2)
    if ident == 21:
        return _pow(x, 2 * K + 3, 2 * K) * ((2 * K + 1) * x * x + 1.0) ** 3
    if ident == 22:
        return _pow(x, K + 1, K) * ((2 * K + 1) * x * x + 1.0) ** 3
    if ident == 23:
        return (x * x + 1.0) * _pow(x, 3, 2 * K) * ((2 * K + 1) * x * x + 1.0) ** 3
    if ident == 24:
        lv = float(lam)
        return (x ** 5 * lv ** 3 * (2 * K + 1) ** 3
                + x * x * (3.0 * (8 * K * K + 6 * K + 1) * lv ** 2 + 1.0)
                + lv * x * (-4.0 * K * K * lv ** 2 - 2.0 * K * (lv ** 2 - 3.0) + 3.0)
                + 1.0
                + (2 * K + 1) * (lv * x ** 3 * ((4 * K * K + 1) * lv ** 2
                                                + K * (4.0 * lv ** 2 - 6.0) + 3.0)
                                 + x ** 4 * (3.0 * lv ** 2 + K * (6.0 * lv ** 2 + 2.0))))
    raise DomainError(f"unknown generator index {ident}")


class BasisFunction(NamedTuple):
    """One member of an ordered family, evaluable as value or jet."""

    label: str
    fn: Callable
    deriv_order: int = 0
    # p when the member is the generator x^p (u1..u11), else None
    power: int | None = None

    def __call__(self, x):
        if self.deriv_order == 0:
            return self.fn(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        vals = np.array(np.broadcast_to(self.jet(xs, 0).value, xs.shape))
        return vals if np.ndim(x) else float(vals[0])

    def jet(self, x, order: int) -> Jet:
        """Taylor jet at x (a point or an ndarray of points); the base point's
        numeric type is preserved."""
        if np.any(x <= 0.0):
            raise DomainError(f"family functions are defined for x > 0, got {x}")
        base = self.fn(Jet.variable(x, order + self.deriv_order))
        return jet_derivative(base, self.deriv_order)

    def derivative(self, m: int) -> "BasisFunction":
        return BasisFunction(label=f"D{m + self.deriv_order}[{self.label}]"
                             if self.deriv_order else f"D{m}[{self.label}]",
                             fn=self.fn, deriv_order=self.deriv_order + m)

    def substituted_power(self, p: int) -> "BasisFunction":
        """Composition x -> u(x**p) (used by the divided order-6 form)."""
        if self.deriv_order:
            raise DomainError("substitution before differentiation only")
        inner_fn = self.fn
        return BasisFunction(label=f"{self.label}(x^{p})", fn=lambda x: inner_fn(x ** p))

    @staticmethod
    def combine(weights, parts, label: str) -> "BasisFunction":
        ws = tuple(float(w) for w in weights)
        ps = tuple(parts)
        if any(p.deriv_order for p in ps):
            raise DomainError("combine plain generators before differentiation")

        def fn(x):
            acc = None
            for w, p in zip(ws, ps):
                term = w * p.fn(x)
                acc = term if acc is None else acc + term
            return acc

        return BasisFunction(label=label, fn=fn)


def u(ident: int, k: int, lam: float | None = None) -> BasisFunction:
    """Generator u_ident^k (u_24 also takes the real parameter lam)."""
    if not 1 <= ident <= 24:
        raise DomainError(f"generator index must be in 1..24, got {ident}")
    # n = 1 takes k = 0; u18..u23 carry the exponent 1/k
    least = 1 if 18 <= ident <= 23 else 0
    if k < least:
        raise DomainError(f"u{ident} needs k >= {least}, got {k}")
    if ident == 24 and lam is None:
        raise DomainError("u_24 requires the lam parameter")
    label = f"u{ident}^{k}" if ident != 24 else f"u24^{{{k},{lam}}}"
    return BasisFunction(label=label, fn=lambda x: _u_expr(ident, k, lam, x),
                         power=_exponent(ident, k))


_FAMILY_IDS = {
    "F1": (1, 12, 4),
    "F2": (13, 15, 5, 2),
    "F3": (1, 4, 9, 16, 17),
    "F4": (4, 9, 6, 3, 16, 17),
    "F5": (1, 4, 7, 8, 10, 5, 11, 14),
    "F6": (1, 4, 9, 6, 3, 16, 17),
    "F7": (18, 19, 20, 21, 22, 23, 24),
}


def family(name: str, k: int, lam: float | None = None) -> list[BasisFunction]:
    """Ordered family F1..F7 for parameter k (F7 also uses lam)."""
    if name not in _FAMILY_IDS:
        raise DomainError(f"unknown family {name!r}; choose from {sorted(_FAMILY_IDS)}")
    if name == "F7" and lam is None:
        raise DomainError("family F7 requires lam")
    return [u(i, k, lam=lam if i == 24 else None) for i in _FAMILY_IDS[name]]


def family_G(k: int) -> list[BasisFunction]:
    """Prefix family of F6 without the arctan member."""
    return [u(i, k) for i in (1, 4, 9, 6, 3, 16)]


def family_H_pencil(k: int, alpha: float, beta: float) -> list[BasisFunction]:
    """[u4, u9, u6, u3, alpha*u1 + beta*u16 + u17]."""
    tail = BasisFunction.combine(
        (alpha, beta, 1.0), (u(1, k), u(16, k), u(17, k)),
        label=f"{alpha}*u1+{beta}*u16+u17^{k}")
    return [u(4, k), u(9, k), u(6, k), u(3, k), tail]


def family_J0() -> list[BasisFunction]:
    """[1, x, x^2, x^3, (u21^1)^(5), (u23^1)^(5)] from the quintic reduction."""
    monos = [BasisFunction(label=f"x^{p}", fn=(lambda p_: lambda x: _pow(x, p_) if p_ else _one(x))(p))
             for p in range(4)]
    return monos + [u(21, 1).derivative(5), u(23, 1).derivative(5)]


def family_H8(k: int) -> list[BasisFunction]:
    """Eighth derivatives of u18..u23 (u24 is a quintic and drops out)."""
    return [u(i, k).derivative(8) for i in (18, 19, 20, 21, 22, 23)]
