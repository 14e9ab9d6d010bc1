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
import sys
from functools import lru_cache

import numpy as np
from numpy.fft import irfft  # numpy.fft loads lazily; import it with the module
from numpy.polynomial.chebyshev import Chebyshev, chebint

from .combinatorics import compositions, partitions
from .config import SystemConfig
from .errors import DomainError, NumericalError, SequencingError
from .geometry import SECTOR_SIGNS, TWO_PI, switching_angles, theta1_jet
from .polar import PolarField, endpoint_triangles
from .series import Jet

__all__ = ["ZTable", "melnikov", "melnikov_all"]

CHEB_START_DEGREE = 64
CHEB_MAX_DEGREE = 1024
CHEB_REL_TOL = 5e-14


# pi as pocketfft spells it, parsed to the platform's long double
_PI_LD = np.longdouble("3.141592653589793238462643383279502884197")


def _unit_root(x: int, n: int, ang: float) -> tuple[float, float]:
    """(cos, sin) of 2*pi*x/n with pocketfft's octant folding (``sincos_2pibyn::calc``)."""
    x <<= 3
    if x < 4 * n:
        if x < 2 * n:
            if x < n:
                return math.cos(x * ang), math.sin(x * ang)
            return math.sin((2 * n - x) * ang), math.cos((2 * n - x) * ang)
        x -= 2 * n
        if x < n:
            return -math.sin(x * ang), math.cos(x * ang)
        return -math.cos((2 * n - x) * ang), math.sin((2 * n - x) * ang)
    x = 8 * n - x
    if x < 2 * n:
        if x < n:
            return math.cos(x * ang), -math.sin(x * ang)
        return math.sin((2 * n - x) * ang), -math.cos((2 * n - x) * ang)
    x -= 4 * n
    if x < n:
        return -math.sin(x * ang), -math.cos(x * ang)
    return -math.cos((2 * n - x) * ang), -math.sin((2 * n - x) * ang)


@lru_cache(maxsize=8)
def _dct2_twiddles(size: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Post-twiddle factors of a size-``size`` DCT-II: (w[k-1], w[N-k-1], w[(N+1)//2-1]).

    w[i] is the real part of pocketfft's ``sincos_2pibyn(4N)[i+1]``, the
    product of a fine and a coarse table entry, each folded into the first
    octant before ``cos``/``sin``; the arrays are read-only.
    """
    n = 4 * size
    ang = float(np.longdouble(0.25) * _PI_LD / np.longdouble(n))
    nval = (n + 2) // 2
    shift = 1
    while (1 << shift) * (1 << shift) < nval:
        shift += 1
    mask = (1 << shift) - 1
    fine = np.array([(1.0, 0.0)] + [_unit_root(i, n, ang) for i in range(1, mask + 1)])
    coarse = np.array([(1.0, 0.0)] + [_unit_root(i * (mask + 1), n, ang)
                                      for i in range(1, (nval + mask) // (mask + 1))])
    idx = np.arange(1, size + 1)
    x1, x2 = fine[idx & mask], coarse[idx >> shift]
    w = x1[:, 0] * x2[:, 0] - x1[:, 1] * x2[:, 1]
    half = (size + 1) // 2
    wk, wkc = w[:half - 1], w[size - 1 - np.arange(1, half)]
    wk.flags.writeable = wkc.flags.writeable = False
    return wk, wkc, float(w[half - 1])


def _dct2(x: np.ndarray) -> np.ndarray:
    """Unnormalized DCT-II, equal bit for bit to ``scipy.fft.dct(x, type=2)``.

    A port of pocketfft's ``T_dcst23`` onto numpy's copy of the same
    pocketfft: pre-scale and butterfly into halfcomplex order, one unscaled
    inverse real FFT, then the post-twiddle.
    """
    size = x.size
    wk, wkc, wmid = _dct2_twiddles(size)
    pairs = (size - 1) // 2
    buf = np.zeros(2 * (size // 2 + 1))
    buf[0] = 2.0 * x[0]
    odd, even = x[1:2 * pairs:2], x[2:2 * pairs + 1:2]
    buf[2:2 * pairs + 2:2] = even + odd
    buf[3:2 * pairs + 3:2] = even - odd
    if size % 2 == 0:
        buf[size] = 2.0 * x[size - 1]
    y = irfft(buf.view(complex), n=size, norm="forward")
    half = (size + 1) // 2
    yk, ykc = y[1:half], y[size - 1:size - half:-1]
    t1 = wk * ykc + wkc * yk
    t2 = wk * yk - wkc * ykc
    y[1:half] = 0.5 * (t1 + t2)
    y[size - 1:size - half:-1] = 0.5 * (t1 - t2)
    if size % 2 == 0:
        y[half] *= wmid
    return y


@lru_cache(maxsize=8)
def _cheb_points(n: int) -> np.ndarray:
    """cos of the n Chebyshev points of the first kind on [-1, 1], read-only."""
    theta = np.pi * (2.0 * np.arange(n) + 1.0) / (2.0 * n)
    cosines = np.cos(theta)
    cosines.flags.writeable = False
    return cosines


def _cheb_fit(fun, a: float, b: float) -> Chebyshev:
    """Adaptive Chebyshev interpolation of ``fun`` on [a, b].

    Doubles the degree from CHEB_START_DEGREE until the last two coefficients
    drop below CHEB_REL_TOL times the coefficient scale; raises NumericalError
    naming the interval and degree if CHEB_MAX_DEGREE is reached without decay.
    """
    mid, half = 0.5 * (b + a), 0.5 * (b - a)
    n = CHEB_START_DEGREE
    while True:
        nodes = mid + half * _cheb_points(n)
        vals = np.asarray(fun(nodes), dtype=float)
        coef = _dct2(vals) / n
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
                f"sector integrand on [{a}, {b}] did not converge under Chebyshev "
                f"refinement (degree {n}, tail {tail:.3e} of scale {scale:.3e})")
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
    config : SystemConfig
    x : float
        Section coordinate (radius of the unperturbed circle), x > 0.
    order : int
        Highest Melnikov order to build (<= config.k).

    Raises NumericalError when some M_i comes out non-finite.
    """

    def __init__(self, config: SystemConfig, x: float, order: int | None = None):
        self.field = PolarField(config)
        self.x = float(x)
        self.order = config.k if order is None else int(order)
        if not 1 <= self.order <= config.k:
            raise DomainError(f"order must be in 1..{config.k}, got {self.order}")

        self.bounds = (0.0, *switching_angles(self.x, config.n), TWO_PI)
        if self.bounds[1] < sys.float_info.min:
            # sector 0 = [0, theta1] would need a Chebyshev domain map of scale 2/theta1
            raise NumericalError(
                f"crossing angle theta1 = atan(x^(n-1)) underflows to {self.bounds[1]!r} "
                f"at x = {self.x}, n = {config.n}: sector 0 = [0, theta1] is too narrow "
                f"to fit")
        # r-jets of both switching angles, from one Newton solve for theta1
        t1 = theta1_jet(self.x, config.n, self.order)
        self._theta_jets = (t1, math.pi - (-1.0) ** config.n * t1)

        self._cheb: dict[tuple[int, int], Chebyshev] = {}
        self._z_start: dict[tuple[int, int], float] = {}
        self._z_end: dict[tuple[int, int], float] = {}
        self._jump: dict[tuple[int, int], float] = {}
        self._w: dict[tuple[int, int], float] = {}
        self._alpha: dict[tuple[int, int], float] = {}
        self._tjets: dict[tuple[int, int, str, int], Jet] = {}
        self._nested: dict[tuple[int, str], list[Jet]] = {}
        self._triangles: dict[int, list[tuple[Jet, Jet, Jet]]] = {}
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
            value = self._z_end[(i, 2)] / math.factorial(i)
            if not math.isfinite(value):
                raise NumericalError(f"M_{i} is not finite at x = {self.x} "
                                     f"(switching degree n = {self.field.config.n})")
            self._melnikov.append(value)

    def _integrand(self, i: int, j: int, nodesets: dict):
        sign = SECTOR_SIGNS[j]

        def K(tarr):
            key = (j, tarr.size)
            if key not in nodesets:
                nodesets[key] = (self.field.f_r_jets(sign, self.x, tarr, self.order - 1), [])
            fs, zs = nodesets[key]
            zs.extend(self._cheb[(m, j)](tarr) for m in range(len(zs) + 1, i))
            return _chain_sum(i, fs, zs, lambda f, lb: f.coefficient(lb) * math.factorial(lb))

        return K

    # t-jets ------------------------------------------------------------------

    def _nested_jets(self, j: int, side: str) -> list[Jet]:
        """F_1..F_{order-1} at a sector endpoint, F_q a mixed jet of total degree order-1-q.

        Only the jump corrections read these (orders >= 2): ``_tjet_K`` reads
        F_q's r-coefficient L at t-order p with q + L + p <= order - 1.  The
        (r, sin, cos) triangles depend on the endpoint only, so the sectors on
        either side of a switching angle share them.
        """
        key = (j, side)
        if key not in self._nested:
            b = j if side == "L" else j + 1
            if b not in self._triangles:
                self._triangles[b] = endpoint_triangles(self.x, self.bounds[b], self.order - 2)
            self._nested[key] = self.field.f_nested_jets(SECTOR_SIGNS[j], self._triangles[b])
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


def melnikov(config: SystemConfig, i: int, x: float) -> float:
    """Melnikov function of order i at section coordinate x."""
    if x <= 0.0:
        raise DomainError(f"section coordinate must be positive, got {x}")
    return ZTable(config, x, i).melnikov(i)


def melnikov_all(config: SystemConfig, x: float, upto: int | None = None) -> list[float]:
    """[M_1(x), ..., M_upto(x)] sharing one recursion table."""
    upto = config.k if upto is None else upto
    table = ZTable(config, x, upto)
    return [table.melnikov(i) for i in range(1, upto + 1)]

