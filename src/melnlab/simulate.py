"""Closed-form flow of the planar system and the Poincare return map.

Both zones are affine, so each leg of the return map is the exact flow
``s(t) = exp(A t)(s0 - s*) + s*`` of ``s' = A s + b`` with equilibrium
``s* = -A^{-1} b``; the 2x2 exponential is evaluated in closed form for a
focus, a node or saddle, and a repeated eigenvalue alike.  The flow runs in
Cartesian coordinates along the orientation in which the polar angle
increases, so the computed return map's Taylor coefficients in eps are
exactly the Melnikov functions of the polar-time formulation.  Only the
switching times at y = x^n and the return time to the section
S = {y = 0, x > 0} are solved for: a vectorized scan brackets the first sign
change of the event function in the right direction, and ``brentq`` refines
it to about 1e-15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .config import SystemConfig
from .errors import DomainError, EscapeError, EventDegeneracyError, NumericalError

__all__ = ["TrajectorySegment", "PoincareResult", "LimitCycle",
           "integrate_return", "extract_melnikov", "find_limit_cycles"]

R_ESCAPE = (1e-4, 1e4)
EPS_MAX_DEFAULT = 1e-2
TANGENCY_FLOOR = 1e-10
# Each leg looks for its event within [t0, t0 + LEG_WINDOW], scanning the
# event function at steps of at most SCAN_STEP: two crossings closer than one
# step cancel and go unseen.
LEG_WINDOW = 4.0 * math.pi
SCAN_STEP = 0.1
_SCAN = np.linspace(0.0, LEG_WINDOW, math.ceil(LEG_WINDOW / SCAN_STEP) + 1)
EVENT_XTOL = 1e-15
# The equilibrium form rounds to about 3 ulp of |s*|, absolutely.  A leg whose
# equilibrium lies further than EQ_FAR * max(1, |start|) away would lose more
# than 1e-12 relative to its orbit, so it raises instead (as does det A = 0).
EQ_FAR = 1e3
LADDER_RATIO = 2.0
REJECT_REL = 1e-4
# damped Newton of find_limit_cycles; cycles closer than CYCLE_DEDUPE are one
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 30
CYCLE_DEDUPE = 1e-6
# Distinct (x0, eps, config) returns remembered by displacement: the ladders
# of orders 1 and 2 at one point share 8 of their 20 returns.
RETURN_MEMO = 64


@dataclass(frozen=True)
class TrajectorySegment:
    """One smooth leg of a crossing orbit."""

    region: int                    # +1 above the curve, -1 below
    t_span: tuple[float, float]
    start: tuple[float, float]
    end: tuple[float, float]
    exit_event: str                # 'switch' or 'section'
    exit_transversality: float     # d/dt of the event function at exit
    solution: object = field(repr=False, default=None)   # t -> (2, ...) closed-form flow


@dataclass(frozen=True)
class PoincareResult:
    x0: float
    eps: float
    x_return: float
    crossing_times: tuple[float, ...]
    crossing_angles: tuple[float, ...]
    crossing_points: tuple[tuple[float, float], ...]
    segments: tuple[TrajectorySegment, ...] = field(repr=False, default=())

    @property
    def displacement(self) -> float:
        return self.x_return - self.x0


@dataclass(frozen=True)
class LimitCycle:
    x_star: float
    eps: float
    derivative: float              # return-map derivative at the fixed point
    residual: float
    iterations: int
    seed: float
    melnikov_zero: float | None = None
    order: int | None = None

    @property
    def stable(self) -> bool:
        return abs(self.derivative) < 1.0

    def to_dict(self) -> dict:
        return {
            "x_star": self.x_star, "eps": self.eps, "derivative": self.derivative,
            "residual": self.residual, "iterations": self.iterations,
            "seed": self.seed, "melnikov_zero": self.melnikov_zero,
            "order": self.order, "stable": self.stable,
        }


class _Zone:
    """Time-reversed affine field s' = A s + b of one region (polar angle increases).

    ``A = -(J + sum eps^i L_i)`` and ``b = -sum eps^i c_i``, with J the
    linear center.  ``exp(A tau) = e^{mu tau} (C(tau) I + S(tau) N)`` where
    ``mu = tr A / 2``, ``N = A - mu I`` and ``N^2 = q I``: C, S are
    cos, sin/w for q < 0 (focus), cosh, sinh/w for q > 0 (node or saddle)
    and 1, tau for q = 0, with ``w = sqrt(|q|)``.  ``eq`` is the equilibrium
    s* (infinite when det A = 0).
    """

    def __init__(self, config: SystemConfig, region: int, eps: float):
        eps = float(eps)
        a11, a12, a21, a22, b1, b2 = 0.0, 1.0, -1.0, 0.0, 0.0, 0.0
        for i in range(1, config.k + 1):
            oc = config.order(i)
            (p0, p1, p2), (q0, q1, q2) = (oc.a, oc.b) if region > 0 else (oc.alpha, oc.beta)
            w = eps ** i
            a11 += w * p1
            a12 += w * p2
            a21 += w * q1
            a22 += w * q2
            b1 += w * p0
            b2 += w * q0
        a11, a12, a21, a22, b1, b2 = -a11, -a12, -a21, -a22, -b1, -b2
        self.region = region
        self.A = (a11, a12, a21, a22)
        self.b = (b1, b2)
        self.mu = 0.5 * (a11 + a22)
        self.n11 = 0.5 * (a11 - a22)
        q = self.n11 * self.n11 + a12 * a21          # = -det N, free of mu^2 cancellation
        self.kind = 1 if q > 0.0 else (-1 if q < 0.0 else 0)
        self.w = math.sqrt(abs(q))
        det = a11 * a22 - a12 * a21
        self.eq = (math.inf, math.inf) if det == 0.0 else \
            ((a12 * b2 - a22 * b1) / det, (a21 * b1 - a11 * b2) / det)

    def velocity(self, x: float, y: float) -> tuple[float, float]:
        a11, a12, a21, a22 = self.A
        return (a11 * x + a12 * y + self.b[0], a21 * x + a22 * y + self.b[1])


class _Flow:
    """Closed-form solution of one zone through ``start`` at time ``t0``.

    Calling it on an array of absolute times gives the states as a (2, ...)
    array.
    """

    def __init__(self, zone: _Zone, start, t0: float):
        far = math.hypot(*zone.eq)
        if not far <= EQ_FAR * max(1.0, math.hypot(*start)):
            raise NumericalError(f"the field of region {zone.region:+d} has no equilibrium "
                                 f"near the orbit (|s*| = {far:.3e})", equilibrium=zone.eq)
        self.zone = zone
        self.t0 = t0
        d0, d1 = float(start[0]) - zone.eq[0], float(start[1]) - zone.eq[1]
        _, a12, a21, _ = zone.A
        self.d = (d0, d1)
        self.nd = (zone.n11 * d0 + a12 * d1, a21 * d0 - zone.n11 * d1)

    def at(self, tau, lib=math):
        """State at ``tau`` after ``t0``: floats with ``math``, arrays with ``np``."""
        z = self.zone
        if z.kind < 0:
            c, s = lib.cos(z.w * tau), lib.sin(z.w * tau) / z.w
        elif z.kind > 0:
            c, s = lib.cosh(z.w * tau), lib.sinh(z.w * tau) / z.w
        else:
            c, s = 1.0, tau
        e = lib.exp(z.mu * tau)
        ec, es = e * c, e * s
        return (z.eq[0] + ec * self.d[0] + es * self.nd[0],
                z.eq[1] + ec * self.d[1] + es * self.nd[1])

    def __call__(self, t) -> np.ndarray:
        return np.array(self.at(np.asarray(t, dtype=float) - self.t0, np))


def _leg(zone: _Zone, n: int, state, t0: float, direction: int, label: str) -> TrajectorySegment:
    """Flow of ``zone`` from ``state`` to the first event crossing in ``direction``.

    The event function is y - x^n for a 'switch' leg and y for the 'section'
    leg; its first sign change in the scan brackets the event time.
    """
    if label == "switch":
        def g(x, y):
            return y - x ** n
    else:
        def g(x, y):
            return y
    flow = _Flow(zone, state, t0)
    xs, ys = flow.at(_SCAN, np)
    gs = g(xs, ys)
    if direction > 0:
        hits = np.flatnonzero((gs[:-1] < 0.0) & (gs[1:] >= 0.0))
    else:
        hits = np.flatnonzero((gs[:-1] > 0.0) & (gs[1:] <= 0.0))
    if hits.size == 0:
        r_end = math.hypot(xs[-1], ys[-1])
        if not (R_ESCAPE[0] <= r_end <= R_ESCAPE[1]):
            raise EscapeError(f"trajectory left the annulus during the {label} leg (r={r_end:.3e})")
        raise NumericalError(f"no terminating event on the {label} leg",
                             t_final=t0 + LEG_WINDOW)
    j = int(hits[0])

    def g_tau(tau):
        return g(*flow.at(tau))

    lo, hi = float(_SCAN[j]), float(_SCAN[j + 1])
    g_lo, g_hi = g_tau(lo), g_tau(hi)
    if g_lo * g_hi <= 0.0:
        tau = brentq(g_tau, lo, hi, xtol=EVENT_XTOL)
    else:                          # scalar and array rounding disagree at an end
        tau = lo if abs(g_lo) < abs(g_hi) else hi
    x, y = flow.at(tau)
    fx, fy = zone.velocity(x, y)
    trans = fy - n * x ** (n - 1) * fx if label == "switch" else fy
    if abs(trans) < TANGENCY_FLOOR:
        raise EventDegeneracyError(
            f"event contact is tangential (|g'|={abs(trans):.2e} < {TANGENCY_FLOOR})")
    r_end = math.hypot(x, y)
    if not (R_ESCAPE[0] <= r_end <= R_ESCAPE[1]):
        raise EscapeError(f"trajectory left the annulus (r={r_end:.3e})")
    return TrajectorySegment(region=zone.region, t_span=(t0, t0 + tau),
                             start=(float(state[0]), float(state[1])),
                             end=(float(x), float(y)),
                             exit_event=label, exit_transversality=float(trans),
                             solution=flow)


def _check_return(x0: float, eps: float, eps_max: float) -> None:
    if x0 <= 0.0:
        raise DomainError(f"section coordinate must be positive, got {x0}")
    if abs(eps) > eps_max:
        raise DomainError(f"|eps|={abs(eps)} exceeds eps_max={eps_max}")


def integrate_return(x0: float, eps: float, config: SystemConfig, *,
                     eps_max: float = EPS_MAX_DEFAULT,
                     keep_solutions: bool = False) -> PoincareResult:
    """One full return of the section map through the two crossings.

    Legs run region '-' to the first switching contact, '+' to the second,
    then '-' back to the section, matching the sector pattern of y - x^n
    along circles around the origin.
    """
    _check_return(x0, eps, eps_max)
    below, above = _Zone(config, -1, eps), _Zone(config, +1, eps)
    n = config.n
    seg1 = _leg(below, n, (x0, 0.0), 0.0, +1, "switch")
    seg2 = _leg(above, n, seg1.end, seg1.t_span[1], -1, "switch")
    seg3 = _leg(below, n, seg2.end, seg2.t_span[1], +1, "section")
    x_ret = seg3.end[0]
    if x_ret <= 0.0:
        raise NumericalError(f"return point has non-positive abscissa {x_ret}")

    segs = (seg1, seg2, seg3)
    angles = []
    for seg in segs[:2]:
        ang = math.atan2(seg.end[1], seg.end[0]) % (2.0 * math.pi)
        angles.append(ang)
    if not keep_solutions:
        segs = tuple(replace(s, solution=None) for s in segs)
    return PoincareResult(
        x0=x0, eps=eps, x_return=x_ret,
        crossing_times=(seg1.t_span[1], seg2.t_span[1]),
        crossing_angles=tuple(angles),
        crossing_points=tuple(s.end for s in segs[:2]),
        segments=segs,
    )


def displacement(x0: float, eps: float, config: SystemConfig, *, eps_max=EPS_MAX_DEFAULT) -> float:
    """x_return - x0 of one return, each distinct (x0, eps, config) run once."""
    _check_return(x0, eps, eps_max)
    return _displacement(float(x0), float(eps), config)


@lru_cache(maxsize=RETURN_MEMO)
def _displacement(x0: float, eps: float, config: SystemConfig) -> float:
    # displacement has checked |eps| against the caller's eps_max
    return integrate_return(x0, eps, config, eps_max=abs(eps)).displacement


_DEFAULT_BASE = {1: 1e-3, 2: 2e-3, 3: 6e-3, 4: 1.5e-2, 5: 2.5e-2, 6: 3.5e-2}
_DEFAULT_RUNGS = {1: 5, 2: 5, 3: 4, 4: 3, 5: 2, 6: 2}


@dataclass(frozen=True)
class MelnikovEstimate:
    value: float
    error_estimate: float
    order: int
    x0: float
    base_eps: float
    rungs: int
    flagged: bool

    def __float__(self):
        return self.value


def extract_melnikov(x0: float, i: int, config: SystemConfig) -> MelnikovEstimate:
    """i-th eps-Taylor coefficient of the displacement by ladder extrapolation.

    The displacement is sampled at +-base/LADDER_RATIO^j; parity splitting
    isolates the even or odd part (halving the coefficients to determine) and
    a small Vandermonde solve in eps^2 yields the requested coefficient with
    a consistency error estimate (difference against the ladder with one rung
    dropped).  The estimate is flagged when it exceeds ``REJECT_REL`` times
    the coefficient scale.
    """
    if i < 1 or i > config.k:
        raise DomainError(f"order must be in 1..{config.k}, got {i}")
    base, m = _DEFAULT_BASE[i], _DEFAULT_RUNGS[i]
    eps_ladder = base / LADDER_RATIO ** np.arange(m)
    dp = np.array([displacement(x0, +e, config, eps_max=base * 1.0001) for e in eps_ladder])
    dm = np.array([displacement(x0, -e, config, eps_max=base * 1.0001) for e in eps_ladder])
    parity = 1.0 if i % 2 == 0 else -1.0
    part = 0.5 * (dp + parity * dm)          # even part for even i, odd part for odd i
    g = part / eps_ladder ** i               # = M_i + M_{i+2} eps^2 + ...

    def solve(vals, eps_vals):
        zz = eps_vals ** 2
        ncoef = len(vals)
        V = np.vander(zz, ncoef, increasing=True)
        return np.linalg.solve(V, vals)[0]

    full = solve(g, eps_ladder)
    drop_small = solve(g[:-1], eps_ladder[:-1])
    drop_large = solve(g[1:], eps_ladder[1:])
    err = max(abs(full - drop_small), abs(full - drop_large))
    scale = max(1.0, abs(full))
    return MelnikovEstimate(value=float(full), error_estimate=float(err), order=i,
                            x0=x0, base_eps=base, rungs=m,
                            flagged=bool(err > REJECT_REL * scale))


def return_derivative(x0: float, eps: float, config: SystemConfig) -> float:
    """Central-difference derivative of the return map at x0."""
    h = max(1e-5 * max(1.0, x0), 10.0 * abs(eps) * 1e-2)
    fp = integrate_return(x0 + h, eps, config).x_return
    fm = integrate_return(x0 - h, eps, config).x_return
    return (fp - fm) / (2.0 * h)


def find_limit_cycles(eps: float, config: SystemConfig, seeds, *,
                      melnikov_zeros=None, order: int | None = None) -> list[LimitCycle]:
    """Damped Newton on the displacement from each seed; deduplicated.

    At eps = 0 every point is fixed (period annulus): the function reports no
    isolated cycles in that case.  Diverging seeds are skipped with a note in
    the returned list's ``diagnostics`` attribute.
    """
    seeds = [float(s) for s in seeds]
    results: list[LimitCycle] = []
    diagnostics: list[str] = []
    if eps == 0.0:
        lst = _CycleList([])
        lst.diagnostics = ["eps = 0: period annulus, every seed is a non-isolated fixed point"]
        return lst

    zeros = list(melnikov_zeros) if melnikov_zeros is not None else [None] * len(seeds)
    for seed, mzero in zip(seeds, zeros):
        x = float(seed)
        converged = False
        it = 0
        try:
            d = displacement(x, eps, config)
            for it in range(1, NEWTON_MAX_ITER + 1):
                h = max(1e-6, 0.02 * max(1.0, x))
                dp = displacement(x + h, eps, config)
                dmn = displacement(x - h, eps, config)
                slope = (dp - dmn) / (2.0 * h)
                if slope == 0.0:
                    break
                step = -d / slope
                lam = 1.0
                while lam > 1.0 / 64.0:
                    x_new = x + lam * step
                    if x_new > 0.0:
                        d_new = displacement(x_new, eps, config)
                        if abs(d_new) < abs(d):
                            break
                    lam *= 0.5
                else:
                    break
                x, d = x_new, d_new
                if abs(d) <= NEWTON_TOL:
                    converged = True
                    break
        except (EscapeError, NumericalError, EventDegeneracyError, DomainError) as exc:
            diagnostics.append(f"seed {seed}: {exc}")
            continue
        if not converged:
            diagnostics.append(f"seed {seed}: Newton did not reach |displacement| <= {NEWTON_TOL}")
            continue
        if any(abs(x - c.x_star) < CYCLE_DEDUPE for c in results):
            continue
        deriv = return_derivative(x, eps, config)
        results.append(LimitCycle(x_star=x, eps=eps, derivative=deriv, residual=abs(d), iterations=it, seed=float(seed),
                                  melnikov_zero=mzero, order=order))
    results.sort(key=lambda c: c.x_star)
    lst = _CycleList(results)
    lst.diagnostics = diagnostics
    return lst


class _CycleList(list):
    """List of cycles carrying per-seed diagnostics."""

    diagnostics: list[str]


def trajectory_rows(result: PoincareResult, samples_per_leg: int = 200):
    """(t, x, y, region) rows sampled from the closed-form flow of a return orbit.

    Requires ``integrate_return(..., keep_solutions=True)``.
    """
    rows = []
    for seg in result.segments:
        if seg.solution is None:
            raise DomainError("trajectory dump needs keep_solutions=True")
        ts = np.linspace(seg.t_span[0], seg.t_span[1], samples_per_leg)
        vals = seg.solution(ts)
        for t, x, y in zip(ts, vals[0], vals[1]):
            rows.append((float(t), float(x), float(y), seg.region))
    return rows


def write_trajectory_csv(path, result: PoincareResult, samples_per_leg: int = 200):
    from .reports import write_csv

    return write_csv(path, ["t", "x", "y", "region"],
                     trajectory_rows(result, samples_per_leg))
