"""Order-by-order Melnikov functions via the crossing-time recursion.

For scalar state (the polar radius) with N = 2 interior switching angles and
period T = 2*pi, the i-th Melnikov function is M_i(x) = z_i^N(T, x)/i!, where
the z_i^j are built sector by sector:

* the integral term accumulates F_i plus the chain-rule sums over partition
  tuples, integrated with an adaptive-degree Chebyshev interpolant per sector
  (exact antiderivative of the fitted series, target 1e-13 relative);
* crossing a switching angle adds the jump correction
  i! * sum_p (1/p!) d^p/deps^p [delta_{i-p}^j(A_j^p(x, eps), x)] at eps = 0,
  evaluated by composing the t-jet of delta at the switching angle with the
  eps-polynomial A_j^p built from the crossing-time coefficients alpha_j^q.

All t- and state-derivatives come from jet arithmetic; nothing is finite
differenced on the main path.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev, chebint
from scipy.fft import dct

from .combinatorics import compositions, partitions
from .config import SystemConfig
from .errors import DomainError, NumericalError, SequencingError
from .polar import PolarField, build_polar_field
from .series import Jet

__all__ = ["ZTable", "melnikov", "melnikov_all"]

CHEB_START_DEGREE = 64
CHEB_MAX_DEGREE = 1024
CHEB_REL_TOL = 5e-14


def _cheb_fit(fun, a: float, b: float) -> Chebyshev:
    """Adaptive Chebyshev interpolation of ``fun`` on [a, b].

    Doubles the degree from CHEB_START_DEGREE until the last two coefficients
    drop below CHEB_REL_TOL times the coefficient scale; raises NumericalError
    with interval diagnostics if CHEB_MAX_DEGREE is reached without decay.
    """
    mid, half = 0.5 * (b + a), 0.5 * (b - a)
    n = CHEB_START_DEGREE
    while True:
        theta = np.pi * (2.0 * np.arange(n) + 1.0) / (2.0 * n)
        nodes = mid + half * np.cos(theta)
        vals = np.asarray(fun(nodes), dtype=float)
        coef = dct(vals, type=2) / n
        coef[0] *= 0.5
        scale = np.max(np.abs(coef))
        if scale == 0.0:
            return Chebyshev(np.zeros(2), domain=(a, b))
        tail = np.max(np.abs(coef[-2:]))
        if tail <= CHEB_REL_TOL * scale:
            keep = max(2, int(np.max(np.nonzero(np.abs(coef) > 1e-16 * scale)[0])) + 1)
            return Chebyshev(coef[:keep], domain=(a, b))
        if n >= CHEB_MAX_DEGREE:
            raise NumericalError(
                "sector integrand did not converge under Chebyshev refinement",
                interval=(a, b), degree=n, tail=float(tail), scale=float(scale))
        n *= 2


def _cheb_antiderivative(cheb: Chebyshev, lower: float) -> Chebyshev:
    """Antiderivative of ``cheb`` vanishing at ``lower`` (domain-aware)."""
    a, b = cheb.domain
    ci = chebint(cheb.coef) * 0.5 * (b - a)
    prim = Chebyshev(ci, domain=(a, b))
    return prim - prim(lower)


def _chain_sum(i: int, fs, zs, dF):
    """Integrand K_i = F_i + sum over l < i and partitions b of l of
    wgt * dF(F_{i-l}, |b|) * prod_m z_m^{b_m}.

    ``fs[q-1]`` is F_q as an r-jet, ``zs[m-1]`` is z_m, and ``dF(f, lb)`` is
    the lb-th r-derivative of f.  Each z_m is raised to each power once.
    """
    powers = {}
    acc = dF(fs[i - 1], 0)
    for l in range(1, i):
        fm = fs[i - l - 1]
        for b, lb, wgt in partitions(l):
            prod = None
            for m, bm in enumerate(b, start=1):
                if bm == 0:
                    continue
                if (m, bm) not in powers:
                    powers[(m, bm)] = zs[m - 1] ** bm
                prod = powers[(m, bm)] if prod is None else prod * powers[(m, bm)]
            acc = acc + wgt * dF(fm, lb) * prod
    return acc


class ZTable:
    """Per-base-point state of the Melnikov recursion.

    Holds the sector-wise Chebyshev representations of z_i^j, the switching
    angles with their radius jets, crossing-time coefficients alpha_j^q, the
    w_i^j expansion coefficients, and the resulting Melnikov values.

    Parameters
    ----------
    field : PolarField
    x : float
        Section coordinate (radius of the unperturbed circle), x > 0.
    order : int
        Highest Melnikov order to build (<= field.k).
    """

    def __init__(self, field: PolarField, x: float, order: int | None = None):
        self.field = field
        self.geometry = field.geometry
        self.x = float(x)
        self.order = field.k if order is None else int(order)
        if not 1 <= self.order <= field.k:
            raise DomainError(f"order must be in 1..{field.k}, got {self.order}")

        self.bounds = self.geometry.boundaries(self.x)
        self._theta_jets = self.geometry.theta_jets(self.x, self.order)

        self._cheb: dict[tuple[int, int], Chebyshev] = {}
        self._z_start: dict[tuple[int, int], float] = {}
        self._z_end: dict[tuple[int, int], float] = {}
        self._jump: dict[tuple[int, int], float] = {}
        self._w: dict[tuple[int, int], float] = {}
        self._alpha: dict[tuple[int, int], float] = {}
        self._tjets: dict[tuple[int, int, str, int], Jet] = {}
        self._nested: dict[tuple[int, str], list[Jet]] = {}
        self._melnikov: list[float] = []

        self._build()

    # -- public accessors ----------------------------------------------------

    def melnikov(self, i: int) -> float:
        """M_i(x) = z_i^N(T, x)/i!."""
        self._require(i)
        return self._melnikov[i - 1]

    def z(self, i: int, j: int, t: float) -> float:
        """z_i^j(t, x) for t inside sector j (endpoints included)."""
        self._require(i)
        self._check_sector(j)
        a, b = self.bounds[j], self.bounds[j + 1]
        if not (a - 1e-12 <= t <= b + 1e-12):
            raise DomainError(f"t={t} outside sector {j} = [{a}, {b}]")
        return float(self._cheb[(i, j)](min(max(t, a), b)))

    def w(self, i: int, j: int) -> float:
        """Expansion coefficient w_i^j of the perturbed crossing state."""
        self._require(i)
        self._check_switch(j)
        return self._w_ij(i, j)

    def alpha(self, q: int, j: int) -> float:
        """Crossing-time coefficient alpha_j^q (q-th eps-derivative at 0)."""
        if q < 1 or q > self.order - 1:
            raise SequencingError(
                f"alpha_j^q needs 1 <= q <= built order - 1 = {self.order - 1}, got q={q}")
        self._check_switch(j)
        return self._alpha_q(q, j)

    def jump(self, i: int, j: int) -> float:
        """Total jump correction added to z_i^j at the j-th switching angle."""
        self._require(i)
        self._check_switch(j)
        return self._jump.get((i, j), 0.0)

    def theta(self, j: int) -> float:
        return self.bounds[j]

    # -- internals -------------------------------------------------------------

    def _require(self, i: int) -> None:
        if not 1 <= i <= self.order:
            raise SequencingError(f"order {i} not built (table holds 1..{self.order})")

    def _check_sector(self, j: int) -> None:
        if j not in (0, 1, 2):
            raise DomainError(f"sector index must be 0, 1 or 2, got {j}")

    def _check_switch(self, j: int) -> None:
        if j not in (1, 2):
            raise DomainError(f"switching index must be 1 or 2, got {j}")

    def _build(self) -> None:
        # (sector, node count) -> field r-jets and z_m values on those nodes;
        # a sector's Chebyshev nodes depend only on their count, so every
        # order reads prefixes of one evaluation.  Freed on return.
        nodesets: dict[tuple[int, int], tuple[list[Jet], list[np.ndarray]]] = {}
        for i in range(1, self.order + 1):
            for j in range(3):
                if j == 0:
                    left = 0.0
                else:
                    jump = self._jump_value(i, j) if i >= 2 else 0.0
                    self._jump[(i, j)] = jump
                    left = self._z_end[(i, j - 1)] + jump
                self._z_start[(i, j)] = left
                integrand = self._integrand(i, j, nodesets)
                cheb = _cheb_fit(integrand, self.bounds[j], self.bounds[j + 1])
                prim = _cheb_antiderivative(cheb, self.bounds[j])
                self._cheb[(i, j)] = math.factorial(i) * prim + left
                self._z_end[(i, j)] = float(self._cheb[(i, j)](self.bounds[j + 1]))
            self._melnikov.append(self._z_end[(i, 2)] / math.factorial(i))

    def _integrand(self, i: int, j: int, nodesets: dict):
        sign = self.geometry.sector_sign(j)

        def K(tarr):
            key = (j, tarr.size)
            if key not in nodesets:
                nodesets[key] = (self.field.f_r_jets(sign, self.x, tarr, self.order - 1), [])
            fs, zs = nodesets[key]
            zs.extend(self._cheb[(m, j)](tarr) for m in range(len(zs) + 1, i))
            return _chain_sum(i, fs, zs, lambda f, lb: f.coefficient(lb) * math.factorial(lb))

        return K

    # t-jets ------------------------------------------------------------------

    def _endpoint(self, j: int, side: str) -> float:
        return self.bounds[j] if side == "L" else self.bounds[j + 1]

    def _nested_jets(self, j: int, side: str) -> list[Jet]:
        """F_1..F_{order-1} at a sector endpoint, F_q a mixed jet of total degree order-1-q.

        Only the jump corrections read these (orders >= 2): ``_tjet_K`` reads
        F_q's r-coefficient L at t-order p with q + L + p <= order - 1.
        """
        key = (j, side)
        if key not in self._nested:
            sign = self.geometry.sector_sign(j)
            t0 = self._endpoint(j, side)
            self._nested[key] = self.field.f_nested_jets(sign, self.x, t0, self.order - 2)
        return self._nested[key]

    def _tjet_K(self, i: int, j: int, side: str, order: int) -> Jet:
        """t-jet of the integrand K_i^j at a sector endpoint.

        The endpoint jet F_q holds total degree ``self.order - 1 - q`` only,
        so a longer t-jet would be padded with zeros instead of computed.
        """
        assert i + order <= self.order - 1, (i, order, self.order)
        zs = [self._tjet_z(m, j, side, order) for m in range(1, i)]
        return _chain_sum(i, self._nested_jets(j, side), zs,
                          lambda f, lb: (f.coefficient(lb) * math.factorial(lb)).truncate(order))

    def _tjet_z(self, i: int, j: int, side: str, order: int) -> Jet:
        """t-jet of z_i^j at a sector endpoint, order >= 0."""
        key = (i, j, side, order)
        if key in self._tjets:
            return self._tjets[key]
        value = self._z_start[(i, j)] if side == "L" else self._z_end[(i, j)]
        if order == 0:
            jet = Jet([value])
        else:
            kjet = self._tjet_K(i, j, side, order - 1)
            fac = math.factorial(i)
            coeffs = [value] + [fac * kjet.coefficient(p - 1) / p for p in range(1, order + 1)]
            jet = Jet(coeffs)
        self._tjets[key] = jet
        return jet

    def _tjet_delta(self, m: int, j: int, order: int) -> Jet:
        """t-jet of delta_m^j = (z_m^{j-1} - z_m^j)/m! at the j-th angle."""
        upper = self._tjet_z(m, j - 1, "R", order)
        lower = self._tjet_z(m, j, "L", order)
        return (upper - lower) / math.factorial(m)

    # crossing-time machinery ---------------------------------------------------

    def _w_ij(self, i: int, j: int) -> float:
        key = (i, j)
        if key in self._w:
            return self._w[key]
        theta_j = self.bounds[j]
        val = self._z_end[(i, j - 1)] / math.factorial(i)
        for a in range(1, i):
            pref = 1.0 / math.factorial(i - a)
            zjet = self._tjet_z(i - a, j - 1, "R", a)
            for b, lb, wgt in partitions(a):
                dt = zjet.derivative(lb)
                prod = 1.0
                for m_idx, bm in enumerate(b, start=1):
                    if bm:
                        prod *= self._alpha_q(m_idx, j) ** bm
                val += pref * wgt * dt * prod
        self._w[key] = val
        return val

    def _alpha_q(self, q: int, j: int) -> float:
        key = (q, j)
        if key in self._alpha:
            return self._alpha[key]
        theta_jet = self._theta_jets[j - 1]
        val = 0.0
        for l in range(1, q + 1):
            dl = theta_jet.derivative(l)
            if dl == 0.0:
                continue
            ssum = 0.0
            for u in compositions(q, l):
                prod = 1.0
                for ur in u:
                    prod *= self._w_ij(ur, j)
                ssum += prod
            val += math.factorial(q) / math.factorial(l) * dl * ssum
        self._alpha[key] = val
        return val

    def _jump_value(self, i: int, j: int) -> float:
        """i! * sum_p (1/p!) d^p/deps^p [delta_{i-p}^j(A_j^p(x,eps), x)]|_0."""
        total = 0.0
        for p in range(1, i):
            djet = self._tjet_delta(i - p, j, p)
            inner = Jet([0.0] + [self._alpha_q(q, j) / math.factorial(q)
                                 for q in range(1, p + 1)], order=p)
            comp = djet.compose(inner)
            total += comp.coefficient(p)
        return math.factorial(i) * total


def ztable(config: SystemConfig, x: float, order: int | None = None) -> ZTable:
    """Build the recursion table at base point x."""
    return ZTable(build_polar_field(config), x, config.k if order is None else order)


def melnikov(config: SystemConfig, i: int, x: float) -> float:
    """Melnikov function of order i at section coordinate x."""
    if x <= 0.0:
        raise DomainError(f"section coordinate must be positive, got {x}")
    return ztable(config, x, i).melnikov(i)


def melnikov_all(config: SystemConfig, x: float, upto: int | None = None) -> list[float]:
    """[M_1(x), ..., M_upto(x)] sharing one recursion table."""
    upto = config.k if upto is None else upto
    table = ztable(config, x, upto)
    return [table.melnikov(i) for i in range(1, upto + 1)]

