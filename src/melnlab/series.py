"""Truncated Taylor series (jets) with generic coefficient arithmetic.

A :class:`Jet` stores the Taylor coefficients ``c[m] = f^(m)(x0)/m!`` of a
function about a base point, up to a fixed truncation order.  All arithmetic
is exact truncated-series algebra.  Coefficients may be floats, numpy arrays
(for vectorized evaluation over a grid), mpmath numbers, or nested
:class:`Jet` instances (for mixed partial expansions, e.g. an r-jet whose
coefficients are t-jets).

A :class:`TriangleJet` is a bivariate jet cut to a total degree, on one flat
coefficient list: the same values as a nested jet of that shape, without a
jet object per coefficient.  Nested jets serve the tests as the reference
that :class:`TriangleJet` must equal bit for bit.

Products and quotients of two jets, or of two triangles, call straight-line
kernels: Python source of integer indices only, rendered once per result
size from index plans and compiled, which saves an interpreted loop step per
term.  A kernel does the operations of its plan's loop in the same order and
parenthesization, so the bits are those of the loop for every coefficient
type.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "Jet", "TriangleJet",
    "jet_sin", "jet_cos", "jet_sincos", "jet_atan", "jet_exp", "jet_log", "jet_sqrt",
]


def _zero_like(c):
    if isinstance(c, Jet):
        return c.zero_like()
    if isinstance(c, np.ndarray):
        return np.zeros_like(c)
    return 0.0


def _lib(c):
    """numpy, mpmath or math: the library whose functions fit a coefficient
    that is not a jet."""
    if isinstance(c, np.ndarray):
        return np
    if type(c).__module__.startswith("mpmath"):
        import mpmath
        return mpmath
    return math


def _sincos(c):
    return jet_sincos(c) if isinstance(c, Jet) else (_lib(c).sin(c), _lib(c).cos(c))


def _sinhcosh(c):
    if isinstance(c, Jet):
        up, down = jet_exp(c), jet_exp(-c)
        return 0.5 * (up - down), 0.5 * (up + down)
    return _lib(c).sinh(c), _lib(c).cosh(c)


def _atan(c):
    return jet_atan(c) if isinstance(c, Jet) else _lib(c).atan(c)


def _exp(c):
    return jet_exp(c) if isinstance(c, Jet) else _lib(c).exp(c)


def _log(c):
    return jet_log(c) if isinstance(c, Jet) else _lib(c).log(c)


def _sqrt(c):
    return jet_sqrt(c) if isinstance(c, Jet) else _lib(c).sqrt(c)


class Jet:
    """Truncated Taylor expansion ``sum_m c[m] * (v - v0)^m``.

    Parameters
    ----------
    coeffs : sequence
        Taylor coefficients (derivatives divided by factorials), lowest first.
    order : int, optional
        Truncation order; ``coeffs`` is padded with zeros or cut to fit.
    """

    __slots__ = ("c",)
    __array_priority__ = 200.0  # keep ndarray * Jet from vectorizing

    def __init__(self, coeffs: Sequence, order: int | None = None):
        c = list(coeffs)
        if not c:
            raise ValueError("jet needs at least one coefficient")
        if order is not None:
            if order < 0:
                raise ValueError("jet order must be >= 0")
            pad = _zero_like(c[0])
            c = c[: order + 1] + [pad] * (order + 1 - len(c))
        self.c = c

    # -- constructors -------------------------------------------------------

    @staticmethod
    def variable(value, order: int) -> "Jet":
        """Jet of the identity map at ``value`` (value, 1, 0, ...)."""
        c = [value, value * 0.0 + 1.0 if isinstance(value, np.ndarray) else 1.0]
        return Jet(c, order=order)

    @staticmethod
    def constant(value, order: int) -> "Jet":
        return Jet([value], order=order)

    def zero_like(self) -> "Jet":
        return Jet([_zero_like(self.c[0])], order=self.order)

    # -- basic queries -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.c) - 1

    def coefficient(self, m: int):
        """m-th Taylor coefficient (zero beyond the truncation order)."""
        return self.c[m] if m < len(self.c) else _zero_like(self.c[0])

    def derivative(self, m: int):
        """m-th derivative value at the base point, ``m! * c[m]``."""
        return self.coefficient(m) * math.factorial(m)

    @property
    def value(self):
        return self.c[0]

    def truncate(self, order: int) -> "Jet":
        if 0 <= order < len(self.c) - 1:
            return Jet._of(self.c[:order + 1])
        return Jet(self.c, order=order)

    def __repr__(self):
        return f"Jet({self.c!r})"

    # -- ring operations -----------------------------------------------------
    #
    # Coefficient m of a sum, product or quotient reads only coefficients
    # <= m of the operands, by the same float operations at any truncation
    # order; the result keeps the lower of the two orders.

    @staticmethod
    def _of(c: list) -> "Jet":
        """Jet over the list ``c`` itself: no copy, no padding."""
        jet = object.__new__(Jet)
        jet.c = c
        return jet

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet._of([a + b for a, b in zip(self.c, other.c)])
        c = list(self.c)
        c[0] = c[0] + other
        return Jet._of(c)

    __radd__ = __add__

    def __neg__(self):
        return Jet._of([-cm for cm in self.c])

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet._of([a - b for a, b in zip(self.c, other.c)])
        return self + -1.0 * other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self.c, other.c
            n = len(a)
            return Jet._of(_jet_product(n if n <= len(b) else len(b))(a, b))
        return Jet._of([cm * other for cm in self.c])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet._of([cm / other for cm in self.c])
        a, b = self.c, other.c
        n = len(a)
        return Jet._of(_jet_quotient(n if n <= len(b) else len(b))(a, b))

    def __rtruediv__(self, other):
        return Jet.constant(other, self.order) / self

    def __pow__(self, p):
        p = operator.index(p)  # a TypeError for a real exponent: that is power()'s
        if p < 0:
            return 1.0 / (self ** (-p))
        if p == 0:
            return Jet.constant(_zero_like(self.c[0]) + 1.0, self.order)
        out = None
        base = self
        while p:
            if p & 1:
                out = base if out is None else out * base
            p >>= 1
            if p:
                base = base * base
        return out

    # -- calculus ------------------------------------------------------------

    def deriv(self) -> "Jet":
        """Jet of the derivative (one order lower)."""
        if self.order == 0:
            return Jet([_zero_like(self.c[0])])
        return Jet([(m + 1) * self.c[m + 1] for m in range(self.order)])

    def integ(self, const=0.0) -> "Jet":
        """Jet of the antiderivative (one order higher)."""
        return Jet([const] + [self.c[m] / (m + 1) for m in range(len(self.c))])

    def compose(self, inner: "Jet") -> "Jet":
        """Series composition self(inner); the inner jet must have zero value."""
        if inner.c[0] != 0.0:
            raise ValueError("composition requires inner jet with zero constant term")
        n = inner.order
        out = Jet.constant(self.c[-1], n)
        for m in range(len(self.c) - 2, -1, -1):
            out = out * inner + self.c[m]
        return out

    # -- elementary functions (u = self) --------------------------------------

    def power(self, alpha: float) -> "Jet":
        """Real power u**alpha (positive leading coefficient required)."""
        u0 = self.c[0]
        f0 = _exp(alpha * _log(u0))
        n = self.order
        out = [f0]
        for m in range(1, n + 1):
            s = None
            for j in range(1, m + 1):
                term = ((alpha + 1) * j - m) * self.c[j] * out[m - j]
                s = term if s is None else s + term
            out.append(s / (m * u0))
        return Jet(out)


def _compile(name: str, lines: list[str]):
    """The function ``kernel`` that the source ``lines`` define, compiled as
    file ``<name>``, which tracebacks and profiles show."""
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<{name}>", "exec"), namespace)
    return namespace["kernel"]


@lru_cache(maxsize=None)
def _jet_product(n: int):
    """Coefficients 0..n-1 of a * b: a[0] b[m] + a[1] b[m-1] + ... + a[m] b[0],
    summed left to right."""
    coeffs = (" + ".join(f"a[{j}] * b[{m - j}]" for j in range(m + 1)) for m in range(n))
    return _compile(f"jet product {n}", ["def kernel(a, b):", f"    return [{', '.join(coeffs)}]"])


@lru_cache(maxsize=None)
def _jet_quotient(n: int):
    """Coefficients 0..n-1 of a / b: out[m] = (a[m] - b[1] out[m-1] - ... - b[m] out[0]) / b[0]."""
    lines = ["def kernel(a, b):", "    b0 = b[0]"]
    for m in range(n):
        terms = [f"a[{m}]"] + [f"b[{j}] * o{m - j}" for j in range(1, m + 1)]
        lines.append(f"    o{m} = ({' - '.join(terms)}) / b0")
    lines.append(f"    return [{', '.join(f'o{m}' for m in range(n))}]")
    return _compile(f"jet quotient {n}", lines)


def _offset(degree: int, L: int) -> int:
    """Index of coefficient (L, 0) in a triangle of the given total degree."""
    return L * (2 * degree + 3 - L) // 2


def _terms(oa: int, ob: int, p: int) -> tuple:
    """Terms ``a[oa + q] * b[ob + p - q]``, q = 0..p, of coefficient p of a
    t-product of two rows at flat offsets oa and ob, as (a index, b index) pairs."""
    return tuple((oa + q, ob + p - q) for q in range(p + 1))


@lru_cache(maxsize=None)
def _cut_plan(degree: int, d: int) -> tuple[int, ...]:
    """Flat indices, in a triangle of the given degree, of the coefficients of
    its cut to degree d <= degree."""
    return tuple(_offset(degree, L) + p for L in range(d + 1) for p in range(d + 1 - L))


def _product_plan(d: int) -> tuple:
    """Per coefficient (m, p): the t-product terms of a_j b_{m-j}, j = 0..m."""
    return tuple(tuple(_terms(_offset(d, j), _offset(d, m - j), p) for j in range(m + 1))
                 for m in range(d + 1) for p in range(d + 1 - m))


def _quotient_plan(d: int) -> tuple:
    """Per coefficient (m, p) of a / b: the t-product terms of b_j out_{m-j},
    j = 1..m, and the pairs (b_0[q], out_m[p-q]), q = 1..p."""
    return tuple((tuple(_terms(_offset(d, j), _offset(d, m - j), p) for j in range(1, m + 1)),
                  tuple((q, _offset(d, m) + p - q) for q in range(1, p + 1)))
                 for m in range(d + 1) for p in range(d + 1 - m))


@lru_cache(maxsize=None)
def _triangle_product(d: int):
    """a * b on degree-d triangles: per coefficient, each t-product summed over
    q, then the t-products summed over j, both left to right."""
    def tproduct(terms):
        return "(" + " + ".join(f"a[{ia}] * b[{ib}]" for ia, ib in terms) + ")"

    coeffs = (" + ".join(map(tproduct, groups)) for groups in _product_plan(d))
    return _compile(f"triangle product {d}",
                    ["def kernel(a, b):", f"    return [{', '.join(coeffs)}]"])


@lru_cache(maxsize=None)
def _triangle_quotient(d: int):
    """a / b on degree-d triangles: from a's coefficient, add the negated
    t-product b_j out_{m-j} for j = 1..m, subtract b_0[q] out_m[p-q] for
    q = 1..p, and divide by b[0]."""
    plan = _quotient_plan(d)
    lines = ["def kernel(a, b):", "    b0 = b[0]"]
    for k, (groups, tail) in enumerate(plan):
        s = f"a[{k}]"
        for terms in groups:
            s += " + -(" + " + ".join(f"b[{ib}] * o{io}" for ib, io in terms) + ")"
        for ib, io in tail:
            s += f" - b[{ib}] * o{io}"
        lines.append(f"    o{k} = ({s}) / b0")
    lines.append(f"    return [{', '.join(f'o{k}' for k in range(len(plan)))}]")
    return _compile(f"triangle quotient {d}", lines)


class TriangleJet:
    """Bivariate jet in (r, t) cut to total degree ``degree``, on one flat list.

    Coefficient (L, p), of r^L t^p with L + p <= degree, is
    ``c[L * (2 * degree + 3 - L) // 2 + p]``: the t-coefficients of r-order 0,
    then of r-order 1, and so on.  It holds the values of a nested :class:`Jet`
    whose r-coefficient L is a t-jet of order degree - L, and ``+ - * /``
    compute each coefficient by the same operations in the same order as the
    nested jet does (a product sums over q within each t-product a_j b_{m-j},
    then over j), so the results are equal bit for bit.  Mixed degrees keep
    the lower one: the higher-degree operand is first cut to it, which drops
    no coefficient the result reads (j + q <= m + p <= degree).  Products and
    quotients run kernels rendered once per degree from index plans
    (truncated Taylor arithmetic on triangular storage, as in Griewank &
    Walther, *Evaluating Derivatives*, ch. 13): straight-line code with the
    plan's operations in the plan's order, hence the same bits.
    """

    __slots__ = ("c", "degree")
    __array_priority__ = 200.0  # keep ndarray * TriangleJet from vectorizing

    def __init__(self, coeffs: list, degree: int):
        size = _offset(degree, degree + 1)
        if len(coeffs) != size:
            raise ValueError(f"a degree-{degree} triangle needs {size} coefficients, "
                             f"got {len(coeffs)}")
        self.c = coeffs
        self.degree = degree

    @staticmethod
    def _of(c: list, degree: int) -> "TriangleJet":
        """Triangle over the list ``c`` itself, which has the size of the degree: no check."""
        tri = object.__new__(TriangleJet)
        tri.c = c
        tri.degree = degree
        return tri

    def tjet(self, L: int, order: int) -> Jet:
        """r-coefficient L as a t-jet of the given order, at most degree - L."""
        if not 0 <= order <= self.degree - L:
            raise ValueError(f"r-coefficient {L} of a degree-{self.degree} triangle "
                             f"has no t-order {order}")
        start = _offset(self.degree, L)
        return Jet._of(self.c[start:start + order + 1])

    def __repr__(self):
        return f"TriangleJet({self.c!r}, {self.degree})"

    def _cut(self, d: int) -> list:
        """The coefficients of this triangle cut to degree d <= degree."""
        return self.c if d == self.degree else [self.c[k] for k in _cut_plan(self.degree, d)]

    def __add__(self, other):
        if isinstance(other, TriangleJet):
            d = min(self.degree, other.degree)
            return TriangleJet._of([x + y for x, y in zip(self._cut(d), other._cut(d))], d)
        c = list(self.c)
        c[0] = c[0] + other
        return TriangleJet._of(c, self.degree)

    __radd__ = __add__

    def __neg__(self):
        return TriangleJet._of([-cm for cm in self.c], self.degree)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TriangleJet) else -1.0 * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TriangleJet):
            return TriangleJet._of([cm * other for cm in self.c], self.degree)
        d = self.degree if self.degree <= other.degree else other.degree
        return TriangleJet._of(_triangle_product(d)(self._cut(d), other._cut(d)), d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, TriangleJet):
            return TriangleJet._of([cm / other for cm in self.c], self.degree)
        d = self.degree if self.degree <= other.degree else other.degree
        return TriangleJet._of(_triangle_quotient(d)(self._cut(d), other._cut(d)), d)


def jet_sin(u: Jet) -> Jet:
    return jet_sincos(u)[0]


def jet_cos(u: Jet) -> Jet:
    return jet_sincos(u)[1]


def jet_sincos(u: Jet) -> tuple[Jet, Jet]:
    """(sin u, cos u) from one shared recurrence."""
    n = u.order
    u0 = u.c[0]
    s0, c0 = _sincos(u0)
    s = [s0]
    c = [c0]
    for m in range(1, n + 1):
        ss = None
        cc = None
        for j in range(1, m + 1):
            ju = j * u.c[j]
            ts = ju * c[m - j]
            tc = ju * s[m - j]
            ss = ts if ss is None else ss + ts
            cc = tc if cc is None else cc + tc
        s.append(ss / m)
        c.append(-cc / m)
    return Jet._of(s), Jet._of(c)


def jet_atan(u: Jet) -> Jet:
    n = u.order
    if n == 0:
        return Jet([_atan(u.c[0])])
    w = u.deriv() / (1.0 + u * u).truncate(n - 1)
    return w.integ(const=_atan(u.c[0])).truncate(n)


def jet_exp(u: Jet) -> Jet:
    n = u.order
    out = [_exp(u.c[0])]
    for m in range(1, n + 1):
        s = None
        for j in range(1, m + 1):
            t = (j * u.c[j]) * out[m - j]
            s = t if s is None else s + t
        out.append(s / m)
    return Jet(out)


def jet_log(u: Jet) -> Jet:
    n = u.order
    if n == 0:
        return Jet([_log(u.c[0])])
    w = u.deriv() / u.truncate(n - 1)
    return w.integ(const=_log(u.c[0])).truncate(n)


def jet_sqrt(u: Jet) -> Jet:
    return u.power(0.5)
