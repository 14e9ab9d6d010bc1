"""Order-by-order Melnikov functions via the crossing-time recursion.

For scalar state (the polar radius) with N = 2 interior switching angles and
period T = 2*pi, the i-th Melnikov function is M_i(x) = z_i^N(T, x)/i!, where
the z_i^j are built sector by sector:

* the integral term accumulates F_i plus the chain-rule sums over partition
  tuples, integrated with an adaptive-degree Chebyshev interpolant per sector
  (exact antiderivative of the fitted series, target 1e-13 relative), the
  three sectors of every point of a grid side by side in one array pass;
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

from .combinatorics import compositions, partitions
from .config import SystemConfig
from .errors import DomainError, NumericalError, SequencingError
from .geometry import SECTOR_SIGNS, TWO_PI, _theta1_newton, switching_angles
from .polar import PolarField, endpoint_triangles
from .series import Jet, TriangleJet

__all__ = ["ZTable", "melnikov", "melnikov_all"]

CHEB_START_DEGREE = 64
CHEB_MAX_DEGREE = 1024
CHEB_REL_TOL = 5e-14
# Largest z_m block (coefficients x rows x nodes) spread over the nodes before
# its Clenshaw pass: on one point's 3 x 64 nodes numpy's broadcasting set-up
# costs more than the copy, while copying a grid's block costs time and memory.
SPREAD_MAX = 2 ** 14


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
    """Unnormalized DCT-II along the last axis, equal bit for bit to
    ``scipy.fft.dct(x, type=2, axis=-1)``.

    A port of pocketfft's ``T_dcst23`` onto numpy's copy of the same
    pocketfft: pre-scale and butterfly into halfcomplex order, one unscaled
    inverse real FFT over all rows, then the post-twiddle.
    """
    size = x.shape[-1]
    wk, wkc, wmid = _dct2_twiddles(size)
    pairs = (size - 1) // 2
    buf = np.zeros(x.shape[:-1] + (2 * (size // 2 + 1),))
    buf[..., 0] = 2.0 * x[..., 0]
    odd, even = x[..., 1:2 * pairs:2], x[..., 2:2 * pairs + 1:2]
    buf[..., 2:2 * pairs + 2:2] = even + odd
    buf[..., 3:2 * pairs + 3:2] = even - odd
    if size % 2 == 0:
        buf[..., size] = 2.0 * x[..., size - 1]
    y = irfft(buf.view(complex), n=size, norm="forward")
    half = (size + 1) // 2
    yk, ykc = y[..., 1:half], y[..., size - 1:size - half:-1]
    t1 = wk * ykc + wkc * yk
    t2 = wk * yk - wkc * ykc
    y[..., 1:half] = 0.5 * (t1 + t2)
    y[..., size - 1:size - half:-1] = 0.5 * (t1 - t2)
    if size % 2 == 0:
        y[..., half] *= wmid
    return y


@lru_cache(maxsize=8)
def _cheb_points(n: int) -> np.ndarray:
    """cos of the n Chebyshev points of the first kind on [-1, 1], read-only."""
    theta = np.pi * (2.0 * np.arange(n) + 1.0) / (2.0 * n)
    cosines = np.cos(theta)
    cosines.flags.writeable = False
    return cosines


def _chebval(x, c):
    """sum_k c[k] T_k(x) by numpy's ``chebval`` recurrence; len(c) >= 2.

    The rows of ``c`` broadcast against ``x``, so one pass evaluates a
    different series at each point.  Zero rows at the high end change no
    value (at most the sign of an exact zero).
    """
    x2 = 2 * x
    c0, c1 = c[-2], c[-1]
    for ck in c[-3::-1]:
        c0, c1 = ck - c1, c0 + c1 * x2
    return c0 + c1 * x


def _chebval_nodes(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``_chebval(x, c)`` of a (L, rows, 1) coefficient block at (rows, nodes)
    points; a block under SPREAD_MAX is spread over the nodes first.  Same
    IEEE operations in the same order, same bits."""
    if c.shape[0] * x.size > SPREAD_MAX:
        return _chebval(x, c)
    spread = np.empty(c.shape[:-1] + x.shape[-1:])
    spread[...] = c
    x2 = 2 * x
    c0, c1, spare = spread[-2], spread[-1], np.empty_like(x)
    for ck in spread[-3::-1]:
        np.multiply(c1, x2, spare)
        np.add(c0, spare, spare)  # c0 + c1 * x2
        np.subtract(ck, c1, c1)  # ck - c1
        c0, c1, spare = c1, spare, c0
    return c0 + c1 * x


def _chebint(c: np.ndarray) -> np.ndarray:
    """numpy's ``chebint(c)`` of each column of ``c``: the antiderivative
    series on the unit window, vanishing at 0."""
    n = len(c)
    j = np.arange(2, n)[:, None]
    prim = np.empty((n + 1, c.shape[1]))
    prim[0] = c[0] * 0
    prim[1] = c[0]
    prim[2] = c[1] / 4
    prim[3:] = c[2:] / (2 * (j + 1))
    prim[1:n - 1] -= c[2:] / (2 * (j - 1))
    prim[0] += 0 - _chebval_columns(0.0, prim)
    return prim


def _chebval_columns(x, c: np.ndarray) -> np.ndarray:
    """``_chebval`` of each column of ``c`` at the matching entry of ``x``, in
    one array pass, or on Python floats for one point's three sectors, where a
    numpy operation costs some twenty float ones.  Same IEEE operations, same bits."""
    if c.shape[1] > 3:
        return _chebval(x, c)
    xs = x.tolist() if isinstance(x, np.ndarray) else [x] * c.shape[1]
    return np.array([_chebval(t, col) for t, col in zip(xs, c.T.tolist())])


def _pow(a, p: int):
    """``a ** p`` rounded as CPython rounds it, elementwise on an array: numpy's
    power differs from CPython's in the last bit for some bases (p = 2..5)."""
    return np.array([v ** p for v in a.tolist()]) if isinstance(a, np.ndarray) else a ** p


def _chain_sum(i: int, fs, zs, dF, monomials: dict):
    """Integrand K_i = F_i + sum over l < i and partitions b of l of
    wgt * dF(F_{i-l}, |b|) * prod_m z_m^{b_m}.

    ``fs[q-1]`` is F_q as an r-jet, ``zs[m-1]`` is z_m, and ``dF(f, lb)`` is
    the lb-th r-derivative of f.  ``monomials`` keeps each partition's
    monomial prod_m z_m^{b_m} under b, and each power z_m^{b_m} under
    (-m, b_m), which no partition (its entries are >= 0) can equal, for
    every order that reads the same z_m: each is built once, by the
    operations of the order that first needs it.  A longer z_m gives the
    same leading coefficients, so the z_m may be longer than K_i needs.
    """
    acc = dF(fs[i - 1], 0)
    for l in range(1, i):
        fm = fs[i - l - 1]
        for b, lb, wgt in partitions(l):
            prod = monomials.get(b)
            if prod is None:
                for m, bm in enumerate(b, start=1):
                    if bm == 0:
                        continue
                    power = monomials.get((-m, bm))
                    if power is None:
                        power = monomials[(-m, bm)] = zs[m - 1] ** bm
                    prod = power if prod is None else prod * power
                monomials[b] = prod
            acc = acc + wgt * dF(fm, lb) * prod
    return acc


class ZTable:
    """State of the Melnikov recursion at one base point, or in one pass over a grid.

    Holds the sector-wise Chebyshev representations of z_i^j, the switching
    angles with their radius jets, crossing-time coefficients alpha_j^q, the
    w_i^j expansion coefficients, and the resulting Melnikov values, each in
    the shape of x.  Each grid point gets the bits of its own float table; a
    float x keeps float endpoint jets, which a 1-wide array would slow down.

    Parameters
    ----------
    config : SystemConfig
    x : float or 1-D array
        Section coordinate(s) (radius of the unperturbed circle), x > 0.
    order : int
        Highest Melnikov order to build (<= config.k).

    Raises NumericalError when some M_i comes out non-finite.
    """

    def __init__(self, config: SystemConfig, x, order: int | None = None):
        self.field = PolarField(config)
        self.order = config.k if order is None else int(order)
        if not 1 <= self.order <= config.k:
            raise DomainError(f"order must be in 1..{config.k}, got {self.order}")
        if np.ndim(x) > 1 or np.size(x) == 0:
            raise DomainError(f"x must be a float or a non-empty 1-D array, got {x!r}")
        grid = np.ndim(x) == 1
        self.x = np.array(x, dtype=float) if grid else float(x)

        # the crossing angles stay scalar per point: brentq, CPython's x ** (n-1) and atan
        angles = []
        for xp in np.atleast_1d(self.x).tolist():
            angles.append(switching_angles(xp, config.n))
            if angles[-1][0] < sys.float_info.min:
                # sector 0 = [0, theta1] would need a Chebyshev domain map of scale 2/theta1
                raise NumericalError(
                    f"crossing angle theta1 = atan(x^(n-1)) underflows to {angles[-1][0]!r} "
                    f"at x = {xp}, n = {config.n}: sector 0 = [0, theta1] is too narrow "
                    f"to fit")
        t1, t2 = (np.array(a) if grid else a[0] for a in zip(*angles))
        self.bounds = (0.0 * t1, t1, t2, 0.0 * t1 + TWO_PI)

        self._coef: list[np.ndarray] = []  # z_i's Chebyshev series, see _fit
        self._z_start: dict[tuple[int, int], float] = {}
        self._z_end: dict[tuple[int, int], float] = {}
        self._jump: dict[tuple[int, int], float] = {}
        self._w: dict[tuple[int, int], float] = {}
        self._alpha: dict[tuple[int, int], float] = {}
        self._tjets: dict[tuple[int, int, str], Jet] = {}
        self._nested: dict[tuple[int, str], list[TriangleJet]] = {}
        self._monomials: dict[tuple[int, str], dict] = {}  # see _tjet_K
        self._triangles: dict[int, list[tuple[TriangleJet, TriangleJet, TriangleJet]]] = {}
        self._melnikov: list = []

        # on floats an overflow (r^(n-1) at large n) or inf * 0 is silent; so on arrays
        with np.errstate(all="ignore"):
            # r-jets of both switching angles, from one Newton solve for theta1
            t1 = _theta1_newton(self.x, t1, config.n, self.order)
            self._theta_jets = (t1, math.pi - (-1.0) ** config.n * t1)
            self._build()

    # -- public accessors ----------------------------------------------------

    def melnikov(self, i: int):
        """M_i(x) = z_i^N(T, x)/i!, in the shape of x."""
        self._require(i)
        return self._melnikov[i - 1]

    def z(self, i: int, j: int, t):
        """z_i^j(t, x) for t inside sector j (endpoints included)."""
        self._require(i)
        self._check_sector(j)
        a, b = self.bounds[j], self.bounds[j + 1]
        if not np.all((a - 1e-12 <= t) & (t <= b + 1e-12)):
            raise DomainError(f"t={t} outside sector {j} = [{a}, {b}]")
        return self._zval(self._coef[i - 1], j, np.minimum(np.maximum(t, a), b))

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
        # one row per (point, sector), point-major
        lo, hi = np.array(self.bounds[:3]).T.ravel(), np.array(self.bounds[1:]).T.ravel()
        # numpy's Chebyshev domain map (``mapparms``) of each row onto [-1, 1]
        self._map = off, scl = (-hi - lo) / (hi - lo), 2.0 / (hi - lo)
        # (node count, rows) -> field r-jets, z_m values, mapped nodes and the
        # chain-rule monomials of the z_m; every order reads prefixes of one
        # evaluation.  Freed on return.
        nodesets: dict[tuple[int, bytes],
                       tuple[list[Jet], list[np.ndarray], np.ndarray, dict]] = {}
        for i in range(1, self.order + 1):
            # numpy's Chebyshev algebra, step by step: chebint, - prim(lo), * i!, + left
            prim = _chebint(self._fit(i, lo, hi, nodesets)) * 0.5 * (hi - lo)
            prim[0] -= _chebval_columns(off + scl * lo, prim)
            prim *= math.factorial(i)
            for j in range(3):
                if j == 0:
                    left = 0.0
                else:
                    jump = self._jump_value(i, j) if i >= 2 else 0.0
                    self._jump[(i, j)] = jump
                    left = self._z_end[(i, j - 1)] + jump
                self._z_start[(i, j)] = left
                prim[0, j::3] += left
                self._z_end[(i, j)] = self._zval(prim, j, self.bounds[j + 1])
            self._coef.append(prim)
            value = self._z_end[(i, 2)] / math.factorial(i)
            finite = np.isfinite(value)
            if not finite.all():
                bad = np.atleast_1d(self.x)[np.argmin(finite)]
                raise NumericalError(f"M_{i} is not finite at x = {bad} "
                                     f"(switching degree n = {self.field.config.n})")
            self._melnikov.append(value)

    def _zval(self, coef: np.ndarray, j: int, t):
        off, scl = self._map
        if isinstance(self.x, float):  # Python floats: a 1-wide array costs several times more
            return _chebval(float(off[j] + scl[j] * t), coef[:, j].tolist())
        return _chebval(off[j::3] + scl[j::3] * t, coef[:, j::3])

    def _fit(self, i: int, lo: np.ndarray, hi: np.ndarray, nodesets: dict) -> np.ndarray:
        """Chebyshev coefficients of K_i on the unit window, one column per
        (point, sector) row, zero-padded at the high end.

        The rows whose last two coefficients are not below CHEB_REL_TOL times
        their scale are fitted again at twice the degree, and only they are
        evaluated again; at CHEB_MAX_DEGREE the first of them raises
        NumericalError.
        """
        off, scl = self._map
        parts, active, n = [], np.arange(len(lo)), CHEB_START_DEGREE
        while active.size:
            key = (n, active.tobytes())
            if key not in nodesets:
                a, b = lo[active, None], hi[active, None]
                theta = 0.5 * (b + a) + 0.5 * (b - a) * _cheb_points(n)
                signs = np.tile(SECTOR_SIGNS, len(lo) // 3)[active, None]
                r = np.repeat(np.atleast_1d(self.x), 3)[active, None]
                nodesets[key] = (self.field.f_r_jets(signs, r, theta, self.order - 1), [],
                                 off[active, None] + scl[active, None] * theta, {})
            fs, zs, u, monomials = nodesets[key]
            zs.extend(_chebval_nodes(u, self._coef[m - 1][:, active, None])
                      for m in range(len(zs) + 1, i))
            # F_{i-l} has r-order self.order - i + l >= l >= lb: c[lb] exists
            vals = _chain_sum(i, fs, zs, lambda f, lb: f.c[lb] if lb < 2
                              else f.c[lb] * math.factorial(lb), monomials)
            coef = _dct2(vals) / n
            coef[:, 0] *= 0.5
            mag = np.abs(coef)
            scale, tail = mag.max(axis=1), mag[:, -2:].max(axis=1)
            done = (scale == 0.0) | (tail <= CHEB_REL_TOL * scale)
            if n >= CHEB_MAX_DEGREE and not done.all():
                k = int(np.argmin(done))
                raise NumericalError(
                    f"sector integrand on [{lo[active[k]]}, {hi[active[k]]}] did not "
                    f"converge under Chebyshev refinement (degree {n}, tail {tail[k]:.3e} "
                    f"of scale {scale[k]:.3e})")
            # keep each row through its last coefficient above 1e-16 of its scale,
            # at least two; a zero row is [0, 0]
            size = np.maximum(2, n - (mag[:, ::-1] > 1e-16 * scale[:, None]).argmax(axis=1))
            size[scale == 0.0] = 2
            coef[(np.arange(n) >= size[:, None]) | (scale[:, None] == 0.0)] = 0.0
            parts.append((active[done], coef[done, :size[done].max(initial=2)]))
            active = active[~done]
            n *= 2
        block = np.zeros((max(c.shape[1] for _, c in parts), len(lo)))
        for rows, c in parts:
            block[:c.shape[1], rows] = c.T
        return block

    # t-jets ------------------------------------------------------------------

    def _nested_jets(self, j: int, side: str) -> list[TriangleJet]:
        """F_1..F_{order-1} at a sector endpoint, F_q an (r, t)-jet of total degree order-1-q.

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
        so it has no longer t-jet to give.  The chain-rule monomials come from
        the top-order t-jets of the z_m, so every order i at this endpoint
        shares them.
        """
        assert i + order <= self.order - 1, (i, order, self.order)
        zs = [self._tjet_z(m, j, side, self.order - m) for m in range(1, i)]
        return _chain_sum(i, self._nested_jets(j, side), zs,
                          lambda f, lb: f.tjet(lb, order) if lb < 2
                          else f.tjet(lb, order) * math.factorial(lb),
                          self._monomials.setdefault((j, side), {}))

    def _tjet_z(self, i: int, j: int, side: str, order: int) -> Jet:
        """t-jet of z_i^j at a sector endpoint, 0 <= order <= self.order - i.

        Built once, at the top order; a lower order is its truncation, as a
        t-coefficient reads no higher one.
        """
        top = self.order - i
        assert order <= top, (i, order, self.order)
        key = (i, j, side)
        if key not in self._tjets:
            value = self._z_start[(i, j)] if side == "L" else self._z_end[(i, j)]
            coeffs = [value]
            if top:
                kjet = self._tjet_K(i, j, side, top - 1)
                fac = math.factorial(i)
                coeffs += [fac * kjet.c[p - 1] / p for p in range(1, top + 1)]
            self._tjets[key] = Jet(coeffs)
        jet = self._tjets[key]
        return jet if order == top else jet.truncate(order)

    def _tjet_delta(self, m: int, j: int, order: int) -> Jet:
        """t-jet of delta_m^j = (z_m^{j-1} - z_m^j)/m! at the j-th angle."""
        upper = self._tjet_z(m, j - 1, "R", order)
        lower = self._tjet_z(m, j, "L", order)
        fac = math.factorial(m)
        return Jet._of([(a - b) / fac for a, b in zip(upper.c, lower.c)])

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
                        prod *= _pow(self._alpha_q(m_idx, j), bm)
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
            # no term where theta_j has no l-th derivative, rather than 0 * a w that may
            # be inf; ``zero`` is a bool on floats (no numpy call), an array on a grid
            zero = dl == 0.0
            if zero is True or (zero is not False and zero.all()):
                continue
            ssum = 0.0
            for u in compositions(q, l):
                prod = 1.0
                for ur in u:
                    prod *= self._w_ij(ur, j)
                ssum += prod
            term = math.factorial(q) / math.factorial(l) * dl * ssum
            mixed = zero is not False and zero.any()
            val = np.where(zero, val, val + term) if mixed else val + term
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


def melnikov(config: SystemConfig, i: int, x):
    """Melnikov function of order i at section coordinate x, a float or a 1-D
    array (one recursion pass over the grid)."""
    return ZTable(config, x, i).melnikov(i)


def melnikov_all(config: SystemConfig, x, upto: int | None = None):
    """[M_1(x), ..., M_upto(x)] sharing one recursion table: a list of floats
    for a float x, an (upto, points) array for a 1-D array."""
    upto = config.k if upto is None else upto
    table = ZTable(config, x, upto)
    values = [table.melnikov(i) for i in range(1, upto + 1)]
    return np.array(values) if np.ndim(table.x) else values

